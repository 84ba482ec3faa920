// The distributed protocols that make up SINGLE-RANDOM-WALK (Algorithm 1)
// and its subroutines GET-MORE-WALKS (Algorithm 2) and SAMPLE-DESTINATION
// (Algorithm 3), plus the naive-walk and regeneration protocols.
//
// Each protocol is a self-contained CONGEST state machine; the drivers in
// single_random_walk.cpp sequence them and accumulate round counts.
//
// LANE COMPATIBILITY: every protocol here draws randomness exclusively
// through Context::rng() and keeps all mutable state node-indexed, so each
// can run as one lane of a congest::ProtocolMux (the mux retargets
// ctx.rng() to a per-lane stream and isolates messages/wakes per lane).
// The stitch protocols' only cross-instance coupling is the shared
// WalkStore, whose token pools are keyed by source connector -- the
// conflict rule BatchScheduler serializes on.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "core/walk_state.hpp"
#include "graph/transition.hpp"

namespace drw::core {

/// Phase 1 of Algorithm 1: every node v starts `eta_v` tokens, the i-th with
/// desired length lambda + r_i; tokens do one random hop per delivery ("the
/// nodes keep forwarding these tokens with decreased desired walk length").
/// Distinct tokens occupy distinct messages, so congestion is real and the
/// round count displays Lemma 2.1's O(lambda * eta * log n) behaviour.
class ShortWalkPhaseProtocol final : public congest::Protocol {
 public:
  /// A short walk to launch from node `origin`.
  struct Job {
    NodeId origin = kInvalidNode;
    std::uint32_t seq = 0;
    std::uint32_t length = 0;  ///< in [lambda, 2*lambda - 1]
  };

  ShortWalkPhaseProtocol(const Graph& g, std::vector<Job> jobs,
                         WalkStore& store, TrajectoryStore* trajectories,
                         TransitionModel model = TransitionModel::kSimple);
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kToken = 10 };
  struct Pending {
    NodeId source;
    std::uint32_t seq;
    std::uint32_t total;
    std::uint32_t remaining;
    std::uint32_t arrival_slot;
  };
  void route(congest::Context& ctx, NodeId source, std::uint32_t seq,
             std::uint32_t total, std::uint32_t remaining,
             std::uint32_t arrival_slot);
  const Graph* graph_;
  std::vector<std::vector<Job>> jobs_by_node_;
  WalkStore* store_;
  TrajectoryStore* trajectories_;
  TransitionModel model_;
  /// Tokens that took a self-loop step (lazy / Metropolis stay): processed
  /// again next round without any message, via wake_me.
  std::vector<std::vector<Pending>> staying_;
};

/// GET-MORE-WALKS (Algorithm 2): `count` walks from `source`, forwarded as
/// (source, count, steps) aggregates -- one message per edge per round, so no
/// congestion and exactly O(lambda) rounds -- then extended by reservoir
/// sampling: at extension step i every surviving token stops with probability
/// 1/(lambda - i), yielding lengths uniform in [lambda, 2*lambda - 1]
/// (Lemma 2.4). With `extend == false` (PODC 2009 preset) all tokens stop at
/// exactly lambda. With trajectories, the run takes a new generation id at
/// construction: its tokens carry it in HeldToken::seq and its hops become
/// that generation's records.
class GetMoreWalksProtocol final : public congest::Protocol {
 public:
  GetMoreWalksProtocol(const Graph& g, NodeId source, std::uint32_t count,
                       std::uint32_t lambda, bool extend, WalkStore& store,
                       TrajectoryStore* trajectories,
                       TransitionModel model = TransitionModel::kSimple);
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kAggregate = 20 };
  /// Handles one round's arrivals ((arrival_slot, count) pairs, all at the
  /// same hop count) and emits at most one aggregate message per neighbor.
  void process(
      congest::Context& ctx,
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& arrivals,
      std::uint32_t steps);
  const Graph* graph_;
  NodeId source_;
  std::uint32_t initial_count_;
  std::uint32_t lambda_;
  bool extend_;
  WalkStore* store_;
  TrajectoryStore* trajectories_;
  std::uint32_t gen_;
  TransitionModel model_;
  /// Aggregated self-loop stays per node: (count, steps) carried to the
  /// next round locally (no message), preserving lockstep.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> staying_;
};

/// Sweep 2 of SAMPLE-DESTINATION (Algorithm 3): a convergecast up `tree`
/// (rooted at the sampling node v) where every node samples one candidate
/// among its own unused source-v tokens and its children's candidates,
/// weighted by counts, so the root ends up with a uniform sample over all
/// unused short walks from v (Lemma A.2).
class SampleConvergecast final : public congest::Protocol {
 public:
  struct Candidate {
    NodeId holder = kInvalidNode;
    std::uint64_t count = 0;       ///< tokens this candidate was sampled from
    std::uint32_t length = 0;
    WalkKind kind = WalkKind::kPhase1;
    std::uint32_t seq = 0;
    std::uint32_t held_index = 0;  ///< index into store.held[holder]
  };

  SampleConvergecast(const congest::BfsTree& tree, const WalkStore& store,
                     NodeId source);
  void on_round(congest::Context& ctx) override;

  /// Root's result after the run; count == 0 means "no unused walks left"
  /// (SAMPLE-DESTINATION returned NULL and GET-MORE-WALKS is required).
  const Candidate& result() const { return acc_[tree_->root]; }

 private:
  enum MsgType : std::uint16_t { kCandidate = 30 };
  void absorb(congest::Context& ctx, const Candidate& incoming);
  void maybe_forward(congest::Context& ctx);
  const congest::BfsTree* tree_;
  const WalkStore* store_;
  NodeId source_;
  std::vector<Candidate> acc_;
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::uint8_t> sent_;
};

/// One or more plain token walks with every intermediate position optionally
/// recorded. Used for: the naive baseline, the naive tail of Algorithm 1
/// ("walk naively until l steps are completed"), and the k > lambda fallback
/// of MANY-RANDOM-WALKS. Tokens are individual messages (congestion real).
class NaiveSegmentProtocol final : public congest::Protocol {
 public:
  struct Job {
    NodeId start = kInvalidNode;
    std::uint64_t steps = 0;
    std::uint32_t walk_id = 0;
    std::uint64_t base_step = 0;  ///< absolute position of `start`
    /// Record the start position too (false when a preceding stitched
    /// segment already recorded it as its endpoint).
    bool record_start = true;
    /// Record this job's positions at all (per-walk opt-out: jobs of
    /// walks that did not ask for positions share a protocol run with
    /// ones that did).
    bool record = true;
  };

  NaiveSegmentProtocol(const Graph& g, std::vector<Job> jobs,
                       PositionTable* positions,
                       TransitionModel model = TransitionModel::kSimple);
  void on_round(congest::Context& ctx) override;

  /// Destination of each job (valid after the run).
  const std::vector<NodeId>& destinations() const { return destinations_; }

 private:
  enum MsgType : std::uint16_t { kStep = 40 };
  struct Pending {
    std::uint32_t job;
    std::uint64_t remaining;
    std::uint64_t position;
  };
  void advance(congest::Context& ctx, std::uint32_t job,
               std::uint64_t remaining, std::uint64_t position);
  const Graph* graph_;
  std::vector<Job> jobs_;
  std::vector<std::vector<std::uint32_t>> jobs_by_node_;
  PositionTable* positions_;
  std::vector<NodeId> destinations_;
  TransitionModel model_;
  std::vector<std::vector<Pending>> staying_;
};

/// Regeneration (Section 2.2): every stitched short walk is replayed so each
/// node on it learns its absolute position(s). Phase-1 segments replay
/// forward from their source via recorded (source, seq) hop pointers;
/// GET-MORE-WALKS segments replay backward from their endpoint, each hop
/// consuming the first unspent record of the token's generation that left
/// toward the node the replay came from. The tokens of one generation are
/// exchangeable, so any such matching is distribution-correct, and it never
/// depends on when spent generations are freed. All segments replay in
/// parallel; the round count is dominated by the longest segment,
/// O~(lambda) = O~(sqrt(l D)).
class RegenerateProtocol final : public congest::Protocol {
 public:
  struct ForwardJob {
    NodeId source = kInvalidNode;  ///< stitch connector = short-walk source
    std::uint32_t seq = 0;
    std::uint64_t offset = 0;      ///< absolute position of the source
    std::uint32_t walk_id = 0;
  };
  struct ReverseJob {
    NodeId holder = kInvalidNode;  ///< short-walk endpoint
    NodeId source = kInvalidNode;
    std::uint32_t gen = 0;         ///< the token's GET-MORE-WALKS generation
    std::uint32_t length = 0;
    std::uint32_t arrival_slot = 0;
    std::uint64_t offset = 0;
    std::uint32_t walk_id = 0;
  };

  RegenerateProtocol(const Graph& g, std::vector<ForwardJob> forward,
                     std::vector<ReverseJob> reverse,
                     TrajectoryStore& trajectories, PositionTable& positions);
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kForward = 50, kReverse = 51 };
  void forward_step(congest::Context& ctx, NodeId source, std::uint32_t seq,
                    std::uint64_t offset, std::uint32_t hop,
                    std::uint32_t walk_id);
  void reverse_step(congest::Context& ctx, NodeId source, std::uint32_t gen,
                    std::uint64_t offset, std::uint32_t hop,
                    std::uint32_t walk_id, std::uint32_t via_slot);
  std::vector<std::vector<ForwardJob>> forward_by_node_;
  std::vector<std::vector<ReverseJob>> reverse_by_node_;
  TrajectoryStore* trajectories_;
  PositionTable* positions_;
};

}  // namespace drw::core
