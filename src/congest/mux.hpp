// Multi-protocol round multiplexer: N independent Protocol instances
// executed inside ONE Network::run (Section 2.3's phase interleaving --
// BFS / convergecast / broadcast traversals of *different* walks share
// rounds when their connectors do not contend).
//
// Lane model:
//   * Every registered protocol is a LANE. Sends are stamped with the lane
//     id (Message::lane) and the network -- run via run_multiplexed(mux, N)
//     -- gives each (directed edge, lane) pair its own FIFO, so a lane's
//     queueing, congestion and delivery pacing are exactly what they would
//     be in a solo run. The per-edge CONGEST budget applies per lane; the
//     scheduler above the mux is responsible for only co-scheduling lanes
//     whose traffic does not contend (the paper's "connectors far apart"
//     premise), so the widened rounds stay honest.
//   * Each lane may bring its own per-node random streams (derive them with
//     ProtocolMux::derive_lane_rngs). During a lane's dispatch Context::rng
//     is retargeted to that lane's stream, so a lane's draws are
//     independent of co-scheduled lanes. A lane whose protocol draws no
//     randomness (BFS, broadcast) may pass nullptr and share the network
//     streams without consuming from them.
//   * Wakes are virtualized per lane: only the lane that called wake_me()
//     is re-dispatched at that node next round.
//
// Lane isolation invariant (tested by tests/test_mux.cpp): a mux of N
// lanes produces, for every lane, bit-identical protocol state, delivery
// traces and per-lane round/message counts as running that lane alone in
// its own Network::run (as a mux of one, i.e. with the same lane streams)
// -- at every thread count. The argument is inductive: per-lane queues
// and rng make round-r sends a function of the lane's own round-(r-1)
// state alone.
//
// A one-lane run needs no mux: Network::run(protocol, streams) swaps a
// walk's streams in for the run and produces the same draws, deliveries
// and round/message counts, so the stitch scheduler builds a ProtocolMux
// only for waves of two or more lanes.
//
// A ProtocolMux is single-use: construct, add lanes, run once, read the
// per-lane stats. Lane protocols must follow the usual shard-safety
// contract; the mux itself only adds node-indexed or worker-indexed state.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"

namespace drw::congest {

class ProtocolMux final : public Protocol {
 public:
  /// Per-lane accounting mirroring the solo run's RunStats: `rounds` counts
  /// the rounds in which the lane transmitted or scheduled a wake (the
  /// network's own accounting rule applied per lane), `messages` its
  /// deliveries. (For lanes whose protocol uses done(), the cut-off round's
  /// discarded sends are not attributed -- none of the stitching protocols
  /// do.)
  struct LaneStats {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
  };

  explicit ProtocolMux(std::size_t node_count);

  /// Registers a protocol as the next lane and returns its lane id.
  /// `lane_rngs` (owned by the caller, outliving the run) supplies the
  /// lane's per-node random streams; nullptr shares the network's streams
  /// -- only isolation-preserving for protocols that draw no randomness.
  unsigned add_lane(Protocol& protocol, NodeStreams* lane_rngs);

  unsigned lane_count() const noexcept {
    return static_cast<unsigned>(lanes_.size());
  }

  /// The per-node random streams for a lane keyed by `key` from a network
  /// master seed (each derived on its node's first draw). The derivation is
  /// independent of scheduling, so the same (seed, key) yields the same
  /// streams whether the lane runs muxed, solo, or grouped differently --
  /// the root of the bit-identity guarantee across multiplexing widths.
  static NodeStreams derive_lane_rngs(std::uint64_t seed, std::uint64_t key,
                                      std::size_t node_count);

  /// Valid after the run.
  const LaneStats& lane_stats(unsigned lane) const { return stats_[lane]; }

  void on_run_start(unsigned workers) override;
  /// The union of the lanes' start sets (each lane runs at every node of
  /// it in round 0; the start-set contract makes that safe).
  std::span<const NodeId> start_nodes(std::span<const NodeId> all) override;
  /// Splits the node's mixed inbox by Message::lane and dispatches each
  /// lane in ascending id order on its own slice: an inbox that holds one
  /// lane's messages is passed through uncopied, a mixed one is copied by
  /// lane into per-worker scratch.
  void on_round(Context& ctx) override;
  /// True when every lane's protocol reports done() (default-false lanes
  /// keep the run alive until global quiescence). Also the once-per-round
  /// driver hook where per-worker activity flags fold into the per-lane
  /// round counts.
  bool done() const override;

 private:
  struct Lane {
    Protocol* protocol = nullptr;
    NodeStreams* rngs = nullptr;
  };

  /// Per-executor-worker scratch, cache-line separated: sub-inboxes reused
  /// across dispatches plus per-round activity flags and per-run delivery
  /// counts, folded by the driver in done().
  struct alignas(64) WorkerSlot {
    std::vector<std::vector<Delivery>> sub_inbox;   // per lane
    std::vector<std::uint8_t> delivered_flag;       // per lane, per round
    std::vector<std::uint8_t> woke_flag;            // per lane, per round
    std::vector<std::uint64_t> deliveries;          // per lane, per run
  };

  void count_round(unsigned lane, std::uint64_t round) const;
  /// Per-lane dispatch body (activation rule, rng/lane retarget, wake +
  /// accounting) for one lane's slice `sub` of the node's inbox.
  void dispatch_lane(Context& ctx, WorkerSlot& slot, unsigned l, NodeId v,
                     std::span<const Delivery> sub);

  std::size_t node_count_;
  std::vector<Lane> lanes_;
  std::vector<NodeId> start_;  ///< the union start_nodes() returns
  /// wake_[lane * node_count_ + v]: lane asked to run at v next round.
  /// Node-indexed writes only (shard safety).
  std::vector<std::uint8_t> wake_;
  /// Lane done(): drop its traffic + stop dispatching it (set in done()).
  mutable std::vector<std::uint8_t> frozen_;
  mutable std::vector<WorkerSlot> slots_;
  // done() is the engine's only between-rounds driver hook, so the per-round
  // bookkeeping it folds is mutable by design (it runs exactly once per
  // round, single-threaded, after the compute barrier).
  mutable std::vector<LaneStats> stats_;
  mutable std::vector<std::int64_t> last_counted_;
  mutable std::uint64_t iteration_ = 0;
};

}  // namespace drw::congest
