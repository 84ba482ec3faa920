// Public API of the paper's core contribution.
//
//   * single_random_walk  -- Algorithm 1 / Theorem 2.5: an l-step walk from s
//     in O~(sqrt(l D)) rounds. Las Vegas: the returned destination is an
//     exact sample from the l-step walk distribution.
//   * many_random_walks   -- Section 2.3 / Theorem 2.8: k walks in
//     O~(min(sqrt(k l D) + k, k + l)) rounds (naive fallback included).
//   * naive_random_walk   -- the l-round token-forwarding baseline.
//   * StitchEngine        -- the underlying engine (Phase 1 preparation +
//     per-walk stitching), exposed for applications that amortize Phase 1
//     across walks (RST, mixing-time estimation) and for the benchmarks.
//     Phase 2 has one implementation, StitchEngine::WalkTask: walk(),
//     continue_walk(), walk_deferring_tail() and many_random_walks() drive
//     one task on its own; the service's batch scheduler drives several as
//     lanes of a congest::ProtocolMux.
//
// All functions take the network's diameter as an input; the paper assumes
// it is known (it can be obtained in O(D) rounds by two BFS sweeps, which is
// asymptotically free next to any of these algorithms).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "core/params.hpp"
#include "core/protocols.hpp"
#include "core/walk_state.hpp"

namespace drw::core {

/// Per-walk instrumentation (experiment counters for E1-E5, E11).
struct WalkCounters {
  std::uint32_t lambda = 0;            ///< short-walk base length used
  std::uint64_t walks_prepared = 0;    ///< Phase-1 short walks created
  std::uint64_t stitches = 0;          ///< connector hand-offs (Phase 2)
  std::uint64_t sample_calls = 0;      ///< SAMPLE-DESTINATION invocations
  std::uint64_t get_more_walks_calls = 0;
  std::uint64_t naive_tail_steps = 0;  ///< final "walk naively" steps
  /// Every stitch starts with exactly one of these: a BFS build from the
  /// connector, or a reuse of the engine's cached tree for it.
  std::uint64_t tree_builds = 0;
  std::uint64_t tree_reuses = 0;
  congest::RunStats phase1;            ///< Phase-1 rounds/messages
  congest::RunStats phase2;            ///< stitching rounds/messages
  congest::RunStats regen;             ///< regeneration rounds/messages

  WalkCounters& operator+=(const WalkCounters& other) noexcept;
};

struct WalkResult {
  NodeId destination = kInvalidNode;
  congest::RunStats stats;   ///< total rounds/messages for this walk
  WalkCounters counters;
};

/// The stitching engine: owns the distributed walk store, trajectories and
/// positions across one `prepare()` + several `walk()` calls.
class StitchEngine {
 public:
  /// Byte budget of the per-connector BFS tree cache (see tree_cache()).
  /// A fixed constant: 64 MiB holds every root of a 512-node graph (~8 KB
  /// each) and about a thousand roots of a 4039-node one.
  static constexpr std::size_t kTreeCacheBytes = std::size_t{64} << 20;

  StitchEngine(congest::Network& net, Params params, std::uint32_t diameter);

  /// The network this engine stitches on (the mux scheduler drives group
  /// runs through it directly).
  congest::Network& network() noexcept { return *net_; }

  /// Phase 1: prepares short walks sized for `k` walks of length `l`
  /// (Theorem 2.5 for k == 1, MANY-RANDOM-WALKS otherwise). Resets all
  /// engine state. If the resulting lambda exceeds l, the engine enters
  /// naive mode (Section 2.3's fallback) and prepares nothing.
  void prepare(std::uint64_t k, std::uint64_t l);

  bool naive_mode() const noexcept { return naive_mode_; }
  std::uint32_t lambda() const noexcept { return lambda_; }
  bool prepared() const noexcept { return prepared_; }
  std::uint64_t prepared_l() const noexcept { return prepared_l_; }
  std::uint64_t prepared_k() const noexcept { return prepared_k_; }

  /// Phase 2: one l-step walk from `source`, stitching prepared short walks
  /// (or walking naively in naive mode), with its naive tail and
  /// regeneration run before returning. `walk_id` tags recorded positions
  /// and keys the walk's random streams, so walks on one engine need
  /// distinct ids. `record_positions` lets a caller opt a single walk out
  /// of position recording + regeneration even when the engine records
  /// trajectories (the serving layer's per-request `record_positions`
  /// flag); it is a no-op when the engine does not record. Throws
  /// std::logic_error while deferred tails are pending.
  WalkResult walk(NodeId source, std::uint64_t l, std::uint32_t walk_id = 0,
                  bool record_positions = true);

  /// Continues a logical walk whose first `start_step` steps were produced
  /// earlier (possibly by a previous engine): performs l further steps from
  /// `source`, recording positions offset by start_step. Used by the RST
  /// application, where the Aldous-Broder walk must be *extended* across
  /// doubling phases -- restarting and conditioning on covering would bias
  /// the tree distribution.
  WalkResult continue_walk(NodeId source, std::uint64_t l,
                           std::uint32_t walk_id, std::uint64_t start_step);

  /// Like walk(), but defers the final naive tail (the "walk naively until l
  /// steps are completed" segment): the result's destination is the LAST
  /// CONNECTOR until run_deferred_tails() finishes the tails of all deferred
  /// walks concurrently. MANY-RANDOM-WALKS needs this to stay within
  /// O~(sqrt(k l D) + k): k sequential tails of up to 2*lambda steps would
  /// cost k*lambda rounds, while the k tail tokens together cost O(k + 2
  /// lambda) (they are independent token walks, exactly like the naive
  /// fallback). The paper's Theorem 2.8 round budget accounts Phase 1 +
  /// stitching only, which is consistent with concurrent tails.
  /// In naive mode the WHOLE walk is deferred as one token job (the
  /// destination is meaningful only after run_deferred_tails()), so a batch
  /// of deferred naive walks costs O(k + l) rounds, not k * l.
  WalkResult walk_deferring_tail(NodeId source, std::uint64_t l,
                                 std::uint32_t walk_id,
                                 bool record_positions = true);

  /// Completes all deferred tails in one protocol run; returns the final
  /// destination per deferred walk_id plus the stats. Jobs run in
  /// ascending-walk_id order -- the canonical order is what keeps the
  /// shared-stream tail draws independent of the mux scheduler's task
  /// completion order.
  struct TailOutcome {
    std::vector<std::uint32_t> walk_ids;
    std::vector<NodeId> destinations;
    congest::RunStats stats;
  };
  TailOutcome run_deferred_tails();

  // --- Phase 2: the resumable walk task ---------------------------------

  /// The Phase-2 driver: Algorithm 1's stitch loop as a resumable state
  /// machine that exposes each traversal (BFS-to-connector -- skipped when
  /// tree_cache() holds the connector's tree -- sample convergecast,
  /// GET-MORE-WALKS, commit broadcast) as a Protocol the caller runs --
  /// solo via step_solo() or as one lane of a ProtocolMux -- and then
  /// feeds back via advance(). All randomness is drawn from
  /// the task's own per-node streams (keyed by walk_id and the engine's
  /// stream salt from the network seed), so the walk's outcome is
  /// independent of which other walks it was co-scheduled with;
  /// cross-walk coupling through the short-walk store is confined to the
  /// per-connector token pools, which is exactly what the scheduler's
  /// connector-conflict rule serializes. The naive tail -- the whole walk
  /// when l < 2*lambda or in naive mode -- and regeneration are deferred
  /// into the engine's batched runs (run_deferred_tails /
  /// run_deferred_regen).
  class WalkTask {
   public:
    WalkTask(WalkTask&&) = default;
    WalkTask& operator=(WalkTask&&) = default;

    bool finished() const noexcept { return step_ == Step::kDone; }
    /// Conflict key: the walk's current position, i.e. the connector whose
    /// token pool (and BFS root) the next traversal touches.
    NodeId connector() const noexcept { return current_; }
    std::uint32_t walk_id() const noexcept { return walk_id_; }
    /// The next traversal to run (valid while !finished()).
    congest::Protocol& protocol() noexcept { return *protocol_; }
    /// Per-node lane streams for this walk (hand to ProtocolMux::add_lane;
    /// valid while !finished()).
    std::vector<Rng>& lane_rngs() noexcept { return rngs_; }
    /// True while the task holds a sampled token it has not committed: no
    /// other task may sample its connector's pool until the commit runs.
    bool holds_token() const noexcept { return step_ == Step::kCommit; }
    /// Consumes the completed traversal's per-lane stats and builds the
    /// next one (or finishes, deferring tail + regeneration jobs).
    void advance(const congest::RunStats& lane_stats);
    /// Runs the next traversal on its own (one Network::run on the task's
    /// streams), charges it to the engine's totals and advances. Returns
    /// the traversal's cost.
    congest::RunStats step_solo();
    /// Valid once finished(). The destination is the last connector until
    /// run_deferred_tails() resolves this walk_id's tail.
    const WalkResult& result() const noexcept { return result_; }

   private:
    friend class StitchEngine;
    enum class Step : std::uint8_t {
      kBfs, kSample, kGetMore, kResample, kCommit, kDone
    };
    struct Segment {
      SampleConvergecast::Candidate token;
      NodeId from = kInvalidNode;
      std::uint64_t offset = 0;
    };

    WalkTask(StitchEngine& engine, NodeId source, std::uint64_t l,
             std::uint32_t walk_id, bool record_positions,
             std::uint64_t start_step);
    void begin_stitch_or_finish();
    void finish();

    StitchEngine* engine_ = nullptr;
    NodeId source_ = kInvalidNode;
    std::uint64_t l_ = 0;
    std::uint32_t walk_id_ = 0;
    std::uint64_t start_step_ = 0;  ///< steps produced before this task
    bool record_ = false;
    Step step_ = Step::kDone;
    NodeId current_ = kInvalidNode;
    std::uint64_t completed_ = 0;
    std::vector<Rng> rngs_;
    std::unique_ptr<congest::Protocol> protocol_;
    /// The connector's BFS tree: the engine's cached one, or own_tree_
    /// when the cache is full. Heap-held either way, so the address stays
    /// stable across WalkTask moves (the sample/commit protocols keep a
    /// pointer to it).
    const congest::BfsTree* tree_ = nullptr;
    std::unique_ptr<congest::BfsTree> own_tree_;
    SampleConvergecast::Candidate candidate_;
    std::vector<Segment> segments_;
    WalkResult result_;
  };

  /// Starts a resumable stitch task (requires a prepared engine). A walk
  /// with nothing to stitch -- l < 2*lambda, or naive mode -- finishes at
  /// creation with the whole walk deferred as one tail job. The first
  /// task created after prepare() absorbs the pending Phase-1 cost.
  /// `start_step` continues a logical walk (see continue_walk).
  WalkTask start_walk_task(NodeId source, std::uint64_t l,
                           std::uint32_t walk_id, bool record_positions,
                           std::uint64_t start_step = 0);

  /// Replays every deferred regeneration job (segments of walks finished
  /// with record_positions) in one protocol run, in canonical
  /// ascending-walk_id order. No-op without record_trajectories.
  congest::RunStats run_deferred_regen();

  /// Folds an externally driven run's cost (a mux group the scheduler ran
  /// through Network::run_multiplexed) into total_stats().
  void absorb_stats(const congest::RunStats& stats) { total_ += stats; }

  /// Positions recorded so far (non-empty only when
  /// params.record_trajectories was set). positions()[v] lists (walk_id,
  /// step) pairs: node v was at step `step` of walk `walk_id`.
  const PositionTable& positions() const noexcept { return positions_; }

  /// Cumulative stats over prepare() + all walk() calls.
  const congest::RunStats& total_stats() const noexcept { return total_; }

  /// BFS trees kept per connector across stitches and batches, within
  /// kTreeCacheBytes. A stitch whose connector is cached skips
  /// SAMPLE-DESTINATION's tree-building sweep; trees depend only on the
  /// root and the static graph, so prepare() keeps them.
  const congest::BfsTreeCache& tree_cache() const noexcept {
    return tree_cache_;
  }
  /// Warm restart: rebuilds the cached trees of `roots` (a snapshot's
  /// record of the cache) without charging their rounds anywhere.
  void restore_tree_cache(std::span<const NodeId> roots);

  /// Times each node served as a connector (stitch point) since the last
  /// prepare(); instruments Lemma 2.7 / experiment E5.
  const std::vector<std::uint64_t>& connector_visits() const noexcept {
    return connector_visits_;
  }
  std::uint64_t max_connector_visits() const noexcept;

  // --- Serving-layer hooks (src/service) ---------------------------------
  // The service keeps one engine's short-walk store alive across many
  // batches instead of discarding it per prepare(); these hooks expose the
  // inventory, accept external replenishment, and let the prepared envelope
  // be retargeted without re-running Phase 1.

  /// Read access to the distributed short-walk store (the inventory).
  const WalkStore& store() const noexcept { return store_; }

  /// Read access to the routing records (snapshot serialization).
  const TrajectoryStore& trajectories() const noexcept {
    return trajectories_;
  }

  /// Restores connector-visit counters captured by a snapshot (adopt_state
  /// zeroes them; a warm restart needs the pre-crash values because the
  /// inventory's demand diffs against them). Size must match the network.
  void restore_connector_visits(std::vector<std::uint64_t> visits);

  /// Unused short-walk tokens per source node (one scan of the store).
  std::vector<std::uint64_t> unused_counts_by_source() const;

  /// External replenishment: adds `count` fresh short walks from `source`
  /// via GET-MORE-WALKS (Algorithm 2 as a stand-alone top-up, O(lambda)
  /// rounds) without stitching anything. Requires a prepared, non-naive
  /// engine. Returns the rounds/messages spent.
  congest::RunStats replenish(NodeId source, std::uint32_t count);

  /// Retargets the prepared envelope to k walks of length <= l WITHOUT
  /// discarding the store -- the persistent-inventory alternative to
  /// prepare(). Lambda is kept; walks shorter than 2*lambda simply run as
  /// naive tails (still exact samples). Requires a prepared, non-naive
  /// engine.
  void adopt_plan(std::uint64_t k, std::uint64_t l);

  /// The engine's distributed walk state, movable between engines so a
  /// serving layer can persist the inventory beyond one engine's lifetime.
  struct EngineState {
    WalkStore store{0};
    TrajectoryStore trajectories{0};
    std::uint32_t lambda = 0;
    std::uint64_t prepared_l = 0;
    std::uint64_t prepared_k = 1;
  };
  /// Moves the state out, leaving the engine unprepared.
  EngineState release_state();
  /// Adopts previously released state: the engine becomes prepared without
  /// running Phase 1. The state's node count must match the network.
  void adopt_state(EngineState state);

  /// Drains recorded positions (move + reset), bounding position-table
  /// growth across serving batches. Empty unless record_trajectories.
  PositionTable drain_positions();

 private:
  /// One solo task plus its tail and regeneration (walk, continue_walk).
  WalkResult complete_walk(NodeId source, std::uint64_t l,
                           std::uint32_t walk_id, std::uint64_t start_step,
                           bool record_positions);

  congest::Network* net_;
  Params params_;
  std::uint32_t diameter_;
  /// Drawn from the network's node-0 stream at construction and mixed into
  /// every task's stream key, so engines built one after another on the
  /// same network (many_random_walks calls, RST phases) never replay each
  /// other's coins even though they reuse walk ids.
  std::uint64_t stream_salt_;
  std::uint32_t lambda_ = 0;
  bool naive_mode_ = false;
  bool prepared_ = false;
  std::uint64_t prepared_l_ = 0;
  std::uint64_t prepared_k_ = 1;
  WalkStore store_;
  TrajectoryStore trajectories_;
  PositionTable positions_;
  congest::RunStats total_;
  congest::RunStats pending_phase1_;   ///< Phase-1 cost, charged to next walk
  std::uint64_t pending_prepared_ = 0;
  std::vector<std::uint64_t> connector_visits_;
  congest::BfsTreeCache tree_cache_;
  std::vector<NaiveSegmentProtocol::Job> deferred_tails_;
  std::vector<RegenerateProtocol::ForwardJob> deferred_forward_;
  std::vector<RegenerateProtocol::ReverseJob> deferred_reverse_;
};

/// Theorem 2.5: one walk of length l from `source`. Positions are recorded
/// into the result only when params.record_trajectories is set.
struct SingleWalkOutput {
  WalkResult result;
  PositionTable positions;
};
SingleWalkOutput single_random_walk(congest::Network& net, NodeId source,
                                    std::uint64_t l, const Params& params,
                                    std::uint32_t diameter);

/// The naive baseline: token forwarding for l rounds (1-RW-DoS: the
/// destination learns the source's ID directly from the token).
WalkResult naive_random_walk(
    congest::Network& net, NodeId source, std::uint64_t l,
    TransitionModel model = TransitionModel::kSimple);

/// Theorem 2.8: k walks of length l from `sources` (not necessarily
/// distinct). Falls back to k parallel naive tokens when lambda > l.
struct ManyWalksOutput {
  std::vector<NodeId> destinations;
  congest::RunStats stats;
  WalkCounters counters;
  bool used_naive_fallback = false;
  PositionTable positions;
};
ManyWalksOutput many_random_walks(congest::Network& net,
                                  std::span<const NodeId> sources,
                                  std::uint64_t l, const Params& params,
                                  std::uint32_t diameter);

}  // namespace drw::core
