// The distributed protocols that make up SINGLE-RANDOM-WALK (Algorithm 1)
// and its subroutines GET-MORE-WALKS (Algorithm 2) and SAMPLE-DESTINATION
// (Algorithm 3), plus the naive-walk and regeneration protocols.
//
// Each protocol is a self-contained CONGEST state machine; the drivers in
// random_walks.cpp sequence them and accumulate round counts.
//
// LANE COMPATIBILITY: every protocol here draws randomness exclusively
// through Context::rng() (RegenerateProtocol's record matching hashes the
// walk instead) and keeps all mutable state node-indexed, so each
// can run as one lane of a congest::ProtocolMux (the mux retargets
// ctx.rng() to a per-lane stream and isolates messages/wakes per lane).
// The stitch protocols' only cross-instance coupling is the shared
// WalkStore, whose token pools are keyed by source connector -- the
// conflict rule BatchScheduler serializes on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "core/walk_state.hpp"
#include "graph/transition.hpp"

namespace drw::core {

/// One source's share of a GET-MORE-WALKS run: `count` walks from `source`.
struct TopUp {
  NodeId source = kInvalidNode;
  std::uint32_t count = 0;
};

/// GET-MORE-WALKS (Algorithm 2) for a list of sources at once: topups[i] is
/// generation base + i, where base is TrajectoryStore::next_generation at
/// construction, when the run takes its ids -- so they are the same at every
/// mux width (without trajectories the base is 0). Phase 1 of Algorithm 1 is
/// one such run with an entry per node; its n generations seldom share a
/// message, so its rounds show Lemma 2.1's congestion. Each generation's
/// walks are forwarded as (gen, count, steps) aggregates, one message per
/// edge per round and generation, then extended by reservoir sampling: at
/// extension step i every surviving token stops with probability 1/(lambda -
/// i), yielding lengths uniform in [lambda, 2*lambda - 1] (Lemma 2.4). With
/// `extend == false` (PODC 2009 preset) all tokens stop at exactly lambda. A
/// one-entry run never queues and costs O(lambda) rounds whatever its count
/// (Lemma 2.2). Aggregates of different generations that want one edge share
/// its FIFO, so a multi-source run pays its contention in rounds and may
/// deliver an aggregate after its hop count; the stop rule reads the hop,
/// never the round, so every token keeps its law. Tokens carry their
/// generation in HeldToken::seq, and with trajectories each hop becomes that
/// generation's record.
class GetMoreWalksProtocol final : public congest::Protocol {
 public:
  GetMoreWalksProtocol(const Graph& g, std::vector<TopUp> topups,
                       std::uint32_t lambda, bool extend, WalkStore& store,
                       TrajectoryStore* trajectories,
                       TransitionModel model = TransitionModel::kSimple);
  /// The entries' sources (round 0 acts only where tokens stand).
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return start_;
  }
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kAggregate = 20 };
  /// `count` tokens of generation `gen` standing at a node after `steps`
  /// hops, having arrived through `slot` (kNoSlot: started or stayed here);
  /// `order` is its place among the node's arrivals of the round.
  struct Arrival {
    std::uint32_t gen;
    std::uint32_t steps;
    std::uint32_t slot;
    std::uint32_t order;
    std::uint64_t count;
  };
  /// Handles one (gen, steps) group of a round's arrivals and emits at most
  /// one aggregate message per neighbor for it.
  void process(congest::Context& ctx, std::span<const Arrival> group);
  const Graph* graph_;
  std::vector<TopUp> topups_;
  std::uint32_t lambda_;
  bool extend_;
  WalkStore* store_;
  TrajectoryStore* trajectories_;
  std::uint32_t gen_base_;
  TransitionModel model_;
  /// Tokens standing at each node for its next round, carried locally (no
  /// message): the node's own entries before round 0, then aggregated
  /// self-loop stays with their hop count already advanced.
  std::vector<std::vector<Arrival>> staying_;
  std::vector<NodeId> start_;
};

/// Sweep 2 of SAMPLE-DESTINATION (Algorithm 3): a convergecast up `tree`
/// (rooted at the sampling node v) where every node samples one candidate
/// among its own unused source-v tokens and its children's candidates,
/// weighted by counts, so the root ends up with a uniform sample over all
/// unused short walks from v (Lemma A.2). Each node also remembers where
/// its kept candidate came from (itself or one child): the path the winner
/// took up the tree, which SampleCommit walks back down.
///
/// Node u reports in round subtree_height[u], when its last child's report
/// has just arrived. The first sweep over a freshly built tree (kFirst) has
/// every node report, count 0 included -- those messages are how the nodes
/// learn their subtree heights. On a tree swept before (kSilent), the
/// network being synchronous, silence by that round carries the count-0
/// report: only nodes whose subtree holds an unused source-v token send,
/// each waking itself until its round, and the root stays awake until
/// round `height` as it would have to in any case. Both kinds cost exactly
/// `height` rounds and make the same draws, so they return the same
/// candidate and path; a kSilent sweep's messages are the non-root nodes
/// whose subtree holds an unused source-v token, and its round 0 runs only
/// at the root and the holders WalkStore::holders_of lists.
class SampleConvergecast final : public congest::Protocol {
 public:
  struct Candidate {
    NodeId holder = kInvalidNode;
    std::uint64_t count = 0;       ///< tokens this candidate was sampled from
    std::uint32_t length = 0;
    std::uint32_t seq = 0;         ///< the token's generation
    std::uint32_t held_index = 0;  ///< index into store.held[holder]
  };
  enum class Sweep : std::uint8_t { kFirst, kSilent };

  SampleConvergecast(const congest::BfsTree& tree, const WalkStore& store,
                     NodeId source, Sweep sweep);
  /// Every node for kFirst (each reports); the root plus the source's
  /// holders for kSilent.
  std::span<const NodeId> start_nodes(std::span<const NodeId> all) override;
  void on_round(congest::Context& ctx) override;

  /// Root's result after the run; count == 0 means "no unused walks left"
  /// (SAMPLE-DESTINATION returned NULL and GET-MORE-WALKS is required).
  const Candidate& result() const { return acc_[tree_->root]; }
  /// The winner's path after the run: via[v] is v when v's own token is
  /// its kept candidate, else the child whose candidate v kept. Moves the
  /// array out (hand it to SampleCommit).
  std::vector<NodeId> take_path() { return std::move(via_); }

 private:
  enum MsgType : std::uint16_t { kCandidate = 30 };
  void absorb(congest::Context& ctx, NodeId from, const Candidate& incoming);
  const congest::BfsTree* tree_;
  const WalkStore* store_;
  NodeId source_;
  Sweep sweep_;
  std::vector<Candidate> acc_;
  std::vector<NodeId> via_;
  std::vector<NodeId> start_;
};

/// Sweep 3 of SAMPLE-DESTINATION: only the holder of the sampled short
/// walk has to act (delete it and take over the walk token), so the root
/// sends one message down the path SampleConvergecast recorded and each
/// node forwards it to its own `via` entry until the holder marks
/// held[holder][held_index] used. Costs depth(holder) messages and rounds
/// -- nothing when the root holds the token -- and draws no randomness.
class SampleCommit final : public congest::Protocol {
 public:
  SampleCommit(NodeId root, std::vector<NodeId> via, WalkStore& store,
               const SampleConvergecast::Candidate& sampled);
  /// The root.
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return {&root_, 1};
  }
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kCommit = 32 };
  void forward(congest::Context& ctx, NodeId holder,
               std::uint32_t held_index);
  NodeId root_;
  std::vector<NodeId> via_;
  WalkStore* store_;
  NodeId holder_;
  std::uint32_t held_index_;
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
  /// The jobs' start nodes.
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return start_;
  }
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
  std::vector<NodeId> start_;
};

/// Regeneration (Section 2.2): every stitched short walk is replayed
/// backward from its endpoint so each node on it learns its absolute
/// position(s). Each hop takes one unspent record of the token's generation
/// that left toward the node the replay came from, chosen uniformly (see
/// walk_state.hpp) by a SplitMix64 hash of `salt`, the walk id, the
/// segment's offset and the hop -- never a node-stream coin, so no other
/// draw moves and the paths are the same at every thread count and after a
/// warm restart. All segments replay in parallel; the round count is
/// dominated by the longest segment, O~(lambda) = O~(sqrt(l D)).
class RegenerateProtocol final : public congest::Protocol {
 public:
  struct Job {
    NodeId holder = kInvalidNode;  ///< short-walk endpoint
    std::uint32_t gen = 0;         ///< the token's generation
    std::uint32_t length = 0;
    std::uint32_t arrival_slot = 0;
    std::uint64_t offset = 0;      ///< absolute position of the source
    std::uint32_t walk_id = 0;
  };

  RegenerateProtocol(const Graph& g, std::vector<Job> jobs,
                     TrajectoryStore& trajectories, PositionTable& positions,
                     std::uint64_t salt);
  /// The jobs' holders (each replay starts at its endpoint).
  std::span<const NodeId> start_nodes(std::span<const NodeId>) override {
    return start_;
  }
  void on_round(congest::Context& ctx) override;

 private:
  enum MsgType : std::uint16_t { kReplay = 51 };
  /// This node is the segment's position `hop` (from its source): records
  /// it and, above the source, sends the replay on through `prev_slot`.
  void step(congest::Context& ctx, std::uint32_t walk_id, std::uint32_t gen,
            std::uint64_t offset, std::uint32_t hop, std::uint32_t prev_slot);
  std::vector<std::vector<Job>> jobs_by_node_;
  TrajectoryStore* trajectories_;
  PositionTable* positions_;
  std::uint64_t salt_;
  std::vector<NodeId> start_;
};

/// The deferred naive tails and the regeneration as one protocol
/// (StitchEngine::run_deferred): every node runs both, and each skips the
/// other's message types.
class FinishProtocol final : public congest::Protocol {
 public:
  FinishProtocol(NaiveSegmentProtocol& tails, RegenerateProtocol& regen)
      : tails_(&tails), regen_(&regen) {}
  /// The union of the two protocols' start sets.
  std::span<const NodeId> start_nodes(std::span<const NodeId> all) override;
  void on_round(congest::Context& ctx) override {
    tails_->on_round(ctx);
    regen_->on_round(ctx);
  }

 private:
  NaiveSegmentProtocol* tails_;
  RegenerateProtocol* regen_;
  std::vector<NodeId> start_;
};

}  // namespace drw::core
