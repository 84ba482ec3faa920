// Synchronous CONGEST-model network simulator (paper Section 1.1).
//
// Model contract:
//   * Communication proceeds in discrete rounds. In each round every node may
//     send one message of O(log n) bits through each incident edge; messages
//     sent in round t are delivered at the beginning of round t+1.
//   * Local computation is free; only rounds are counted.
//
// Faithfulness mechanics:
//   * `Message` is a type tag plus at most four 64-bit words -- a constant
//     number of node IDs / counters, i.e. O(log n) bits.
//   * Each *directed* edge owns a FIFO backlog queue (a chunked arena, see
//     edge_arena.hpp). Protocols may enqueue any number of sends per round;
//     the network delivers at most one message per directed edge per round
//     and the rest wait. Congestion therefore costs rounds *emergently*,
//     exactly as in the paper's analysis (e.g. Lemma 2.1: "any iteration
//     could require more than 1 round").
//   * Round accounting: a round is counted iff it carried any activity
//     (delivery, send, or a self-scheduled wake). Global termination
//     detection is free for the driver, which matches the paper's phase
//     composition (phases have known length bounds in the real algorithm).
//
// Parallel round executor:
//   The CONGEST model makes node steps within a round independent by
//   construction, and the simulator exploits that. Nodes are partitioned
//   into `threads()` contiguous shards, and worker s owns shard s: it runs
//   that shard's nodes and nothing else. Each round runs two barrier-
//   separated phases on a persistent worker pool:
//
//     compute  -- worker s runs `on_round` for shard s's active nodes in
//                 ascending node order. Sends go to per-worker staging
//                 buckets, one per destination shard; nothing shared is
//                 written.
//     transmit -- every shard runs ONE fused stage-merge-deliver pass over
//                 the edges it owns: first it drains one queued message per
//                 already-backlogged edge into its nodes' inboxes, then it
//                 replays the staged sends bucket by bucket in ascending
//                 worker order (shards are ascending node ranges, so this
//                 is the global ascending-node send order at every thread
//                 count), delivering each edge's FIRST message of the round
//                 directly -- the arena is touched only by the congested
//                 long tail -- and finally assembles its own next-round
//                 active list (so the compute phase needs no extra
//                 barrier). The fusion is observationally identical to the
//                 historical merge-then-deliver sweep: inbox append order,
//                 busy-list order and max-backlog accounting are reproduced
//                 exactly (see transmit_phase).
//
//   Shards are contiguous node ranges balanced by (1 + degree) weight, a
//   prefix-sum over degrees, so that degree-skewed graphs -- stars,
//   lollipops, power laws -- do not pile all edge traffic onto one worker.
//   Each directed edge is owned by exactly one shard (its destination
//   node's), so both phases are lock-free. Delivery order into every inbox
//   -- and therefore every RNG draw -- is bit-identical across all thread
//   counts, including the fully inline 1-thread run. Configure with
//   Network::set_threads() or the DRW_THREADS environment variable.
//
//   Rounds whose work falls below the dispatch grain run inline on the
//   driver thread (identical data flow and results). The grain is
//   micro-calibrated at executor build time from the measured pool dispatch
//   overhead vs a probed per-node visit cost; DRW_PARALLEL_GRAIN overrides.
//
// Protocols are event-driven: a node's `on_round` runs when it received
// messages this round, asked to be woken, or during round 0 (all nodes wake
// once so protocols can initialize). Per-node randomness comes from streams
// split off the network's master seed, so runs are deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/edge_arena.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace drw::congest {

/// Statistics for one protocol run (or an accumulation of several).
struct RunStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;     ///< total messages delivered
  /// Peak per-edge queue length observed. Counts messages that entered an
  /// edge queue; sends staged in a final round that protocol.done() cut
  /// short are discarded untransmitted and do not register here.
  std::uint64_t max_backlog = 0;
  double wall_ms = 0.0;  ///< wall-clock time inside Network::run
  /// Per-phase breakdown of wall_ms, measured on the driver thread around
  /// each phase dispatch. compute_ms + transmit_ms ~= wall_ms minus the
  /// between-phase bookkeeping; exported by the bench JSON reports.
  double compute_ms = 0.0;
  double transmit_ms = 0.0;
  /// CPU time spent merging staged sends inside the transmit phase, SUMMED
  /// across shards (shards merge concurrently, so this can legitimately
  /// exceed transmit_ms x 1; it attributes how much of transmit is merge
  /// work rather than delivery work).
  double merge_ms = 0.0;
  /// Sends that took the packed structure-of-arrays token fast path (see
  /// message.hpp PackedToken) instead of the generic PendingSend staging.
  /// Purely an attribution counter: routing is invisible to protocols.
  std::uint64_t token_sends = 0;
  /// Widest executor width CONFIGURED among accumulated runs. Rounds whose
  /// per-phase work falls below the parallel grain still execute inline on
  /// the driver thread regardless of this width.
  std::uint32_t threads = 0;

  RunStats& operator+=(const RunStats& other) noexcept {
    rounds += other.rounds;
    messages += other.messages;
    max_backlog = max_backlog > other.max_backlog ? max_backlog
                                                  : other.max_backlog;
    wall_ms += other.wall_ms;
    compute_ms += other.compute_ms;
    transmit_ms += other.transmit_ms;
    merge_ms += other.merge_ms;
    token_sends += other.token_sends;
    threads = threads > other.threads ? threads : other.threads;
    return *this;
  }

  /// Saturating difference of cumulative counters, for attributing deltas
  /// out of running totals (e.g. around StitchEngine::total_stats()). The
  /// max_backlog peak and threads width are not differentiable and are kept
  /// as-is.
  RunStats& operator-=(const RunStats& earlier) noexcept {
    rounds = rounds > earlier.rounds ? rounds - earlier.rounds : 0;
    messages = messages > earlier.messages ? messages - earlier.messages : 0;
    wall_ms = wall_ms > earlier.wall_ms ? wall_ms - earlier.wall_ms : 0.0;
    compute_ms = compute_ms > earlier.compute_ms
                     ? compute_ms - earlier.compute_ms : 0.0;
    transmit_ms = transmit_ms > earlier.transmit_ms
                      ? transmit_ms - earlier.transmit_ms : 0.0;
    merge_ms = merge_ms > earlier.merge_ms ? merge_ms - earlier.merge_ms
                                           : 0.0;
    token_sends = token_sends > earlier.token_sends
                      ? token_sends - earlier.token_sends : 0;
    return *this;
  }
  friend RunStats operator-(RunStats later, const RunStats& earlier) noexcept {
    later -= earlier;
    return later;
  }
};

class Network;
class ProtocolMux;

/// Per-node view handed to Protocol::on_round. Only exposes information a
/// real processor would have: its own ID, its neighbors, its inbox, its coin.
class Context {
 public:
  NodeId self() const noexcept { return self_; }
  std::uint64_t round() const noexcept { return round_; }
  /// This round's deliveries in arrival order. On a multi-lane run the
  /// top-level protocol (the ProtocolMux) sees every lane's messages
  /// mixed; each lane protocol then sees only its own slice.
  std::span<const Delivery> inbox() const noexcept { return inbox_; }

  std::uint32_t degree() const noexcept;
  std::span<const NodeId> neighbors() const noexcept;
  NodeId neighbor(std::uint32_t slot) const noexcept;
  /// Slot of an adjacent node (degree() if not adjacent).
  std::uint32_t slot_of(NodeId neighbor_id) const noexcept;

  /// Enqueues a message on the directed edge (self -> slot-th neighbor).
  void send(std::uint32_t slot, const Message& m);
  /// Enqueues to a neighbor by ID (binary-searches the slot; must be
  /// adjacent).
  void send_to(NodeId neighbor_id, const Message& m);
  /// Requests on_round next round even if no message arrives.
  void wake_me();
  /// This node's private random stream. Under a multiplexed run the mux
  /// retargets this to the running lane's private per-node stream, so a
  /// lane's draws are independent of what other lanes consume.
  Rng& rng();

 private:
  friend class Network;
  friend class ProtocolMux;  ///< retargets lane_/lane_rng_ per lane dispatch
  Network* net_ = nullptr;
  NodeId self_ = kInvalidNode;
  std::uint64_t round_ = 0;
  unsigned worker_ = 0;  ///< executor worker (= shard) running this node
  std::span<const Delivery> inbox_;
  std::uint16_t lane_ = 0;    ///< stamped onto every send
  Rng* lane_rng_ = nullptr;   ///< overrides the shared node stream when set
  bool lane_woke_ = false;    ///< wake_me() happened during a lane dispatch
};

/// A distributed algorithm: one object holding the state of *all* nodes
/// (indexed by NodeId), invoked per active node per round. Protocols must
/// only let node v's logic read node v's slice of that state.
///
/// SHARD SAFETY: `on_round` calls of nodes in different shards may run on
/// different executor threads within a round. The rule above is therefore
/// load-bearing, and for writes it is strict: node v's on_round may only
/// write state indexed by v (or by something only v owns this round, e.g.
/// the job a token it just received belongs to). Reads of shared
/// *immutable* inputs (the graph, a BFS tree, config) are fine; cross-node
/// mutable scratch members are not. Context::rng() is per-node and safe.
/// Every protocol in this repository has been audited against this rule.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once on the driver thread before round 0 of every run, with
  /// the effective executor width. Default no-op; the protocol mux uses it
  /// to size per-worker scratch.
  virtual void on_run_start(unsigned workers) { (void)workers; }

  /// Called for every active node each round (round 0 activates all nodes).
  virtual void on_round(Context& ctx) = 0;

  /// Optional early-stop: checked after each round. The default runs until
  /// quiescence (no queued messages, no wakes). Called between rounds on
  /// the driver thread; it may read any protocol state.
  virtual bool done() const { return false; }
};

class Network {
 public:
  /// Hard cap on run_multiplexed lanes: each lane costs one virtual FIFO
  /// head per directed edge (O(E * lanes) arena index memory).
  static constexpr unsigned kMaxLanes = 256;

  /// The graph must be connected (the paper's standing assumption).
  explicit Network(const Graph& g, std::uint64_t seed);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Graph& graph() const noexcept { return *graph_; }

  /// Worker threads for subsequent runs: 0 = auto (DRW_THREADS env var if
  /// set, else hardware concurrency, bounded by per-round work on small
  /// graphs). Every request is clamped to [1, min(node_count, 256)]; read
  /// back the effective width via threads() or RunStats.threads. Results
  /// are bit-identical for every thread count; 1 runs fully inline.
  void set_threads(unsigned threads);
  /// The worker count the next run() will use.
  unsigned threads() const noexcept;

  /// Effective inline-dispatch grain (work units below which a phase runs
  /// on the driver thread): the DRW_PARALLEL_GRAIN override, or the value
  /// micro-calibrated when the executor was (re)built; 0 before the first
  /// run builds it.
  std::size_t dispatch_grain() const noexcept { return grain_; }

  /// Runs `protocol` to completion (quiescence or protocol.done()).
  /// Throws std::runtime_error if `max_rounds` is exceeded -- a protocol bug.
  RunStats run(Protocol& protocol, std::uint64_t max_rounds = 10'000'000);

  /// Like run(), but Context::rng draws from `node_streams` (one per node)
  /// instead of the network's own streams: the two vectors are swapped for
  /// the run and swapped back afterwards, also when the protocol throws.
  /// A protocol run this way draws exactly what it would draw as a
  /// ProtocolMux lane holding the same streams, without the mux.
  RunStats run(Protocol& protocol, std::vector<Rng>& node_streams,
               std::uint64_t max_rounds = 10'000'000);

  /// Runs a multiplexed protocol (normally a congest::ProtocolMux) with
  /// `lanes` independent message lanes: every (directed edge, lane) pair
  /// gets its own FIFO backlog, so each lane's queueing and delivery pacing
  /// is exactly what it would be in a solo run -- the per-edge CONGEST
  /// budget applies per lane, mirroring the paper's interleaving analysis
  /// where non-contending traversals share rounds. `lanes` == 1 is
  /// identical to run(). Messages must carry Message::lane < lanes.
  /// Every node keeps ONE inbox holding all lanes' deliveries in arrival
  /// order; the protocol splits it by Message::lane (ProtocolMux does).
  RunStats run_multiplexed(Protocol& protocol, unsigned lanes,
                           std::uint64_t max_rounds = 10'000'000);

  /// Node-private random stream (stable per node per network instance).
  Rng& node_rng(NodeId v) { return node_rngs_[v]; }

  /// The master seed this network's per-node streams were split from;
  /// multiplexed drivers derive per-lane streams from it (see mux.hpp).
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  friend class Context;
  struct WorkerPool;

  /// A staged GENERIC send: resolved VIRTUAL edge id (directed edge x
  /// lane) + payload, buffered thread-locally during the compute phase and
  /// replayed by the owner shard. Lane regions are contiguous
  /// (lane * E + eid), so each lane's queue index block is as cache-dense
  /// as a solo run and the base edge recovers with one multiply-subtract
  /// from the message's own lane tag. The dominant packable walk tokens
  /// bypass this 56-byte record entirely (see TokenColumns below);
  /// `tokens_before` records how many of the bucket's tokens were staged
  /// before this entry, so the replay can reconstruct the exact staging
  /// interleave of the two streams.
  struct PendingSend {
    std::uint32_t eid = 0;  ///< msg.lane * directed_edge_count + base_eid
    std::uint32_t tokens_before = 0;  ///< token-column size at stage time
    Message msg;
  };

  /// Structure-of-arrays staging for packable token sends: one
  /// (worker, owner) bucket holds three parallel u64 columns (see
  /// message.hpp PackedToken for the lane/eid/payload packing). 24 bytes
  /// per send vs PendingSend's 56, and the replay loop streams three
  /// dense arrays instead of striding over embedded Message payloads.
  struct TokenColumns {
    std::vector<std::uint64_t> hdr;
    std::vector<std::uint64_t> lo;
    std::vector<std::uint64_t> hi;
  };

  /// Per-shard executor working set, touched only by the shard's own
  /// worker during a phase (the driver installs the round-0 active list
  /// and reads counters between phases, after the pool barrier).
  struct Shard {
    std::vector<NodeId> active;  ///< this round's nodes, ascending
    /// Weight of `active` for dispatch sizing: 1 + inbox size per node
    /// (1 + degree in round 0).
    std::uint64_t work = 0;
    std::vector<NodeId> delivered;     ///< inboxes filled in last transmit
    std::vector<std::uint32_t> busy;   ///< owned edges with queued messages
    std::uint64_t transmitted = 0;
    std::uint64_t max_backlog = 0;
    /// wake_me() requests staged during compute, merged into the next
    /// active list during transmit.
    std::vector<NodeId> woken;
    /// Edges first touched (direct-delivered) this round, in canonical
    /// first-send order; those still backlogged after the fused pass are
    /// appended to `busy` -- reproducing exactly the busy order the
    /// unfused merge-then-deliver engine built.
    std::vector<std::uint32_t> fresh_scratch;
  };

  /// Per-worker hot counters, cache-line separated so concurrent workers
  /// do not false-share. deliveries/sends/wakes are per round (driver
  /// resets), token_sends/merge_ns accumulate per run.
  struct alignas(64) WorkerLane {
    std::uint64_t deliveries = 0;
    std::uint64_t sends = 0;
    std::uint64_t wakes = 0;
    std::uint64_t token_sends = 0;
    double merge_ns = 0.0;
  };

  void stage_send(unsigned worker, NodeId from, std::uint32_t slot,
                  const Message& m, std::uint16_t lane);
  void stage_wake(unsigned worker, NodeId self);
  RunStats run_with_lanes(Protocol& protocol, unsigned lanes,
                          std::uint64_t max_rounds);
  unsigned resolve_threads() const noexcept;
  /// Measures pool dispatch overhead vs a probed per-node visit cost and
  /// derives the inline-dispatch grain (only when DRW_PARALLEL_GRAIN is
  /// unset and the pool is real).
  std::size_t calibrate_grain();
  /// (Re)builds the shard partition, edge ownership, arena pools and
  /// worker pool when the effective thread count or lane count changed.
  /// Only between runs.
  void ensure_executor();
  void build_partition();
  /// Runs `phase` for every shard: on the pool when `work` crosses the
  /// dispatch grain, inline in ascending shard order (same data flow, same
  /// results) otherwise.
  void dispatch(std::size_t work, void (Network::*phase)(unsigned));
  void compute_phase(unsigned worker);
  void transmit_phase(unsigned shard);
  void run_loop(Protocol& protocol, std::uint64_t max_rounds,
                RunStats& stats);
  /// Clears backlogs, inboxes, wake flags and staged sends so the network
  /// can host the next protocol run; invoked on normal AND exception exit.
  /// `aborted` (exception path) additionally sweeps every inbox and wake
  /// flag, since a mid-compute throw strands state the per-shard lists no
  /// longer point at.
  void reset_transients(bool aborted);

  const Graph* graph_;
  std::uint64_t seed_ = 0;
  std::vector<Rng> node_rngs_;
  /// Per directed edge, target in the low word and source in the high
  /// word: the transmit hot loop needs both per delivery, and one 8-byte
  /// load halves its random-access cache traffic versus separate
  /// target/source arrays.
  std::vector<std::uint64_t> edge_endpoints_;

  unsigned threads_setting_ = 0;  ///< requested (0 = auto)

  unsigned workers_ = 0;  ///< executor width currently built
  /// Message lanes of the current/next run: the arena holds one virtual
  /// edge queue per (directed edge, lane), id = lane * E + eid.
  unsigned run_lanes_ = 1;
  /// Lanes the arena is sized for. Grow-only: a 1-lane run on an arena
  /// sized for 8 simply leaves the upper queues untouched, so alternating
  /// mux and plain runs does not thrash the arena (or the executor).
  unsigned arena_lanes_ = 0;
  std::size_t grain_ = 0;  ///< effective inline-dispatch grain

  std::vector<NodeId> shard_begin_;        ///< size workers_+1, contiguous
  std::vector<std::uint32_t> edge_owner_;  ///< destination shard per edge
  EdgeArena arena_;
  std::vector<Shard> shards_;
  std::vector<WorkerLane> lanes_;
  /// staged_[worker][owner_shard]: generic sends buffered during compute,
  /// with the packed token columns alongside.
  std::vector<std::vector<std::vector<PendingSend>>> staged_;
  std::vector<std::vector<TokenColumns>> token_staged_;
  /// Per-shard (1 + degree) weight: round 0's dispatch work, when every
  /// node is active with an empty inbox (init work is typically
  /// degree-proportional). Rebuilt with the partition.
  std::vector<std::uint64_t> round0_work_;
  /// One inbox per node, holding every lane's deliveries in arrival
  /// order. Written only by the node's owner shard.
  std::vector<std::vector<Delivery>> inbox_;
  std::vector<std::uint8_t> wake_flag_;
  std::unique_ptr<WorkerPool> pool_;

  /// Round-stamped per-virtual-edge marks driving the fused transmit pass:
  /// busy_tag (stamp * 2) marks edges that entered the round with backlog,
  /// fresh_tag (stamp * 2 + 1) edges whose first message this round was
  /// delivered directly (bypassing the arena). The stamp is bumped by the
  /// driver before every transmit dispatch and NEVER reset, so stale marks
  /// from earlier rounds/runs can't collide; marks are written only by the
  /// edge's owner shard (same discipline as the arena pools).
  std::vector<std::uint64_t> edge_mark_;
  std::uint64_t transmit_stamp_ = 0;

  Protocol* running_ = nullptr;  ///< current protocol during run()
  std::uint64_t round_ = 0;
  bool global_wake_ = false;  ///< round 0: every node is active
};

}  // namespace drw::congest
