// Batch execution planning for the walk service.
//
// The scheduler turns a heterogeneous request batch into walk units and
// drives one StitchEngine through them the way MANY-RANDOM-WALKS does
// (Section 2.3): every walk is a resumable StitchEngine::WalkTask, and
// every naive tail -- including the whole body of walks too short to
// stitch (l < 2*lambda) -- is deferred and completed in ONE concurrent
// NaiveSegmentProtocol run, so k tails cost O(k + 2*lambda) rounds instead
// of k * 2*lambda; the same run regenerates every stitched segment
// (StitchEngine::run_deferred). Units run
// longest-first: deep walks consume (and, via GET-MORE-WALKS, replenish)
// the inventory early, so short walks behind them never stall on an empty
// pool.
//
// Concurrent stitching (MuxOptions): the paper's round analysis permits
// interleaving the BFS/convergecast/commit traversals of *different*
// walks when their connectors do not contend. The scheduler keeps up to
// `width` tasks open and, each wave, groups the tasks whose next
// traversals are pairwise non-conflicting -- the only cross-walk coupling
// is through the short-walk token pools, which are keyed by connector, so
// two traversals conflict exactly when they share a connector (the
// precise ownership rule). Conflicting tasks wait a wave. A task holding
// a sampled but uncommitted token claims its connector before any other
// task, so nobody samples that token in between. A wave of two or more
// lanes executes as one congest::ProtocolMux inside a single
// Network::run, widening rounds so every executor shard has work; a
// one-lane wave (every wave at width 1) runs the task solo on its own
// streams, with no mux.
// kSerial runs the *same* schedule one lane at a time -- the bit-identity
// reference tests/test_mux.cpp and bench_mux compare kMux against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/random_walks.hpp"
#include "service/walk_request.hpp"

namespace drw::service {

/// How the scheduler executes the stitch traversals of a batch.
enum class MuxMode : std::uint8_t {
  kMux,     ///< each multi-lane wave as one multiplexed run
  kSerial,  ///< the same schedule, each lane run solo (test reference)
};

struct MuxOptions {
  MuxMode mode = MuxMode::kMux;
  /// Maximum concurrently open walks (lanes per wave); 1 stitches one walk
  /// at a time.
  unsigned width = 1;
};

class BatchScheduler {
 public:
  /// One walk unit: request `request_index`'s `slot`-th walk, tagged with a
  /// service-global `walk_id`.
  struct Unit {
    std::uint32_t request_index = 0;
    std::uint32_t slot = 0;
    std::uint32_t walk_id = 0;
    NodeId source = 0;
    std::uint64_t length = 0;
    bool record = false;
  };

  /// Everything one batch run produced.
  struct Outcome {
    std::vector<RequestResult> results;  ///< submission order
    /// Batch-level cost: under kMux the stitch part counts each group's
    /// single Network::run once (rounds shared across lanes), so summing
    /// the per-request stats can legitimately exceed this.
    congest::RunStats stats;
    /// Summed over all units; counters.finish is the batch's one run of
    /// tails and regeneration.
    core::WalkCounters counters;
    std::uint64_t walks = 0;
    std::uint64_t mux_groups = 0;        ///< traversal waves executed
    std::uint64_t mux_lanes = 0;         ///< lanes summed over waves
    std::uint64_t mux_conflicts = 0;     ///< ready tasks made to wait a wave
  };

  explicit BatchScheduler(core::StitchEngine& engine) : engine_(&engine) {}

  /// Expands requests into units, longest-first (stable within a length).
  static std::vector<Unit> plan(std::span<const WalkRequest> requests,
                                std::uint32_t first_walk_id);

  /// Runs the batch: conflict-aware stitching waves (per `mux`) with
  /// deferred tails, one run of those tails and the regeneration,
  /// per-request assembly, and -- for units with `record` on an engine
  /// that records trajectories -- path extraction from the drained
  /// position table. The engine must be prepared for (sum of counts, max
  /// length). On a naive-mode engine every task finishes at creation (its
  /// whole walk is a token job in the tail run), so no wave runs.
  Outcome run(std::span<const WalkRequest> requests,
              std::uint32_t first_walk_id, const MuxOptions& mux = {});

 private:
  void stitch(std::span<const Unit> units, const MuxOptions& mux,
              Outcome& out);

  core::StitchEngine* engine_;
};

}  // namespace drw::service
