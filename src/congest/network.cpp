#include "congest/network.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resil/failpoint.hpp"
#include "util/threads.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace drw::congest {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Parsed DRW_PARALLEL_GRAIN: an explicit inline-dispatch grain that
/// disables the startup micro-calibration (the CI TSan leg sets 1 so that
/// even small-graph tests execute on_round on concurrent workers under the
/// race checker). Negative = unset, calibrate instead.
long long env_parallel_grain() {
  static const long long value = [] {
    if (const char* env = std::getenv("DRW_PARALLEL_GRAIN")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env) return static_cast<long long>(parsed);
    }
    return -1ll;
  }();
  return value;
}

}  // namespace

// ------------------------------------------------------------------ Context

std::uint32_t Context::degree() const noexcept {
  return net_->graph().degree(self_);
}

std::span<const NodeId> Context::neighbors() const noexcept {
  return net_->graph().neighbors(self_);
}

NodeId Context::neighbor(std::uint32_t slot) const noexcept {
  return net_->graph().neighbor(self_, slot);
}

std::uint32_t Context::slot_of(NodeId neighbor_id) const noexcept {
  return net_->graph().slot_of(self_, neighbor_id);
}

void Context::send(std::uint32_t slot, const Message& m) {
  net_->stage_send(worker_, self_, slot, m, lane_);
}

void Context::send_to(NodeId neighbor_id, const Message& m) {
  const std::uint32_t slot = net_->graph().slot_of(self_, neighbor_id);
  if (slot >= degree()) {
    throw std::logic_error("Context::send_to: target is not a neighbor");
  }
  net_->stage_send(worker_, self_, slot, m, lane_);
}

void Context::wake_me() {
  lane_woke_ = true;
  net_->stage_wake(worker_, self_);
}

Rng& Context::rng() {
  return lane_rng_ != nullptr ? *lane_rng_ : net_->node_rngs_[self_];
}

// --------------------------------------------------------------- WorkerPool

/// A persistent pool of workers_ - 1 threads; the driver thread acts as
/// worker 0. run() dispatches one task generation to every worker and
/// blocks until all finish; the mutex hand-offs give each phase the
/// acquire/release edges the barrier-separated data flow relies on.
struct Network::WorkerPool {
  explicit WorkerPool(unsigned workers) {
    threads_.reserve(workers - 1);
    for (unsigned id = 1; id < workers; ++id) {
      threads_.emplace_back([this, id] { loop(id); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(const std::function<void(unsigned)>& task) {
    {
      std::lock_guard<std::mutex> lock(m_);
      task_ = &task;
      pending_ = static_cast<unsigned>(threads_.size());
      ++generation_;
    }
    cv_start_.notify_all();
    try {
      task(0);
    } catch (...) {
      record_error();
    }
    std::exception_ptr error;
    {
      // The driver finished its own share; whatever remains until
      // pending_ hits zero is pure imbalance -- the span the trace calls
      // barrier.wait. (The cv hand-off below is also the happens-before
      // edge that lets a post-run Tracer::flush read the workers' rings.)
      obs::Span barrier(obs::Name::kBarrierWait, obs::kPidExecutor, 0);
      std::unique_lock<std::mutex> lock(m_);
      cv_done_.wait(lock, [this] { return pending_ == 0; });
      task_ = nullptr;
      error = error_;
      error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void loop(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_start_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        task = task_;
      }
      try {
        (*task)(id);
      } catch (...) {
        record_error();
      }
      {
        std::lock_guard<std::mutex> lock(m_);
        if (--pending_ == 0) cv_done_.notify_one();
      }
    }
  }

  void record_error() {
    std::lock_guard<std::mutex> lock(m_);
    if (!error_) error_ = std::current_exception();
  }

  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

// ------------------------------------------------------------------ Network

Network::Network(const Graph& g, std::uint64_t seed)
    : graph_(&g), seed_(seed) {
  const std::size_t n = g.node_count();
  Rng master(seed);
  node_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) node_rngs_.push_back(master.split_key(v));

  edge_endpoints_.resize(g.directed_edge_count());
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t slot = 0; slot < g.degree(v); ++slot) {
      const std::size_t eid = g.directed_edge_index(v, slot);
      edge_endpoints_[eid] = static_cast<std::uint64_t>(
                                 g.directed_edge_target(eid)) |
                             (static_cast<std::uint64_t>(v) << 32);
    }
  }
  inbox_.resize(n);
  wake_flag_.assign(n, 0);
}

Network::~Network() = default;

void Network::set_threads(unsigned threads) {
  threads_setting_ = std::min(threads, kMaxThreads);
}

unsigned Network::resolve_threads() const noexcept {
  unsigned want = threads_setting_ == 0 ? default_threads()
                                        : threads_setting_;
  const std::size_t n = graph_->node_count();
  // When the width is purely hardware-derived (no set_threads, no
  // DRW_THREADS), also bound it by available per-round work: a many-core
  // host sharding a small graph 64 ways would pay 64 task hand-offs per
  // phase for a node or two of work each. Explicit requests are honored
  // up to one node per shard.
  if (threads_setting_ == 0 && env_threads() == 0) {
    const std::size_t by_work = n / 32 > 0 ? n / 32 : 1;
    if (want > by_work) want = static_cast<unsigned>(by_work);
  }
  if (n > 0 && want > n) want = static_cast<unsigned>(n);
  return want < 1 ? 1 : want;
}

unsigned Network::threads() const noexcept { return resolve_threads(); }

std::size_t Network::calibrate_grain() {
  // Dispatch overhead: the fixed cost of waking every pool worker and
  // re-joining at the barrier, measured as the best of a few empty
  // generations (the best approximates the uncontended hand-off; worse
  // reps are scheduler noise we should not bake into the grain).
  const std::function<void(unsigned)> noop = [](unsigned) {};
  double overhead_ns = 1e18;
  for (int rep = 0; rep < 8; ++rep) {
    const auto t0 = Clock::now();
    pool_->run(noop);
    const double ns = ns_since(t0);
    if (ns < overhead_ns) overhead_ns = ns;
  }

  // Per-work-unit cost: probe a light per-node visit (degree + inbox-size
  // reads over the real arrays). This underestimates a protocol's actual
  // on_round, which makes the derived grain err toward inline execution --
  // the safe side for latency; genuinely wide rounds sit far above any
  // plausible grain.
  const std::size_t n = graph_->node_count();
  const std::size_t probe = n < 4096 ? n : 4096;
  std::uint64_t sink = 0;
  std::uint64_t visits = 0;
  const auto t0 = Clock::now();
  double elapsed_ns = 0.0;
  do {
    for (NodeId v = 0; v < probe; ++v) {
      sink += graph_->degree(v) + inbox_[v].size();
    }
    visits += probe;
    elapsed_ns = ns_since(t0);
  } while (elapsed_ns < 16384.0 && visits < (1u << 22));
  // Keep the probe's result observable so the loop cannot be elided.
  if (sink == 0x9e3779b97f4a7c15ull) ++visits;
  const double per_unit_ns =
      visits == 0 ? 1.0 : std::max(elapsed_ns / static_cast<double>(visits),
                                   0.25);

  // Dispatch pays off once the round's work dwarfs the hand-off cost; the
  // clamp keeps degenerate measurements (hot VM, coarse clock) sane.
  const double raw = overhead_ns / per_unit_ns;
  const auto grain = static_cast<std::size_t>(raw);
  if (grain < 96) return 96;
  if (grain > 16384) return 16384;
  return grain;
}

void Network::build_partition() {
  const std::size_t n = graph_->node_count();
  shard_begin_.assign(workers_ + 1, 0);
  shard_begin_[workers_] = static_cast<NodeId>(n);
  // Contiguous ranges balanced by (1 + degree) prefix sums, so per-shard
  // edge traffic -- the round executor's actual work -- is near-equal even
  // when degrees are wildly skewed. A node heavier than a whole share (a
  // star center) yields empty neighbor shards: a single node's step cannot
  // be split, so its worker simply carries the heavier round.
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) + graph_->directed_edge_count();
  std::uint64_t acc = 0;
  unsigned cut = 1;
  for (NodeId v = 0; v < n && cut < workers_; ++v) {
    acc += 1 + graph_->degree(v);
    while (cut < workers_ &&
           acc * workers_ >= static_cast<std::uint64_t>(cut) * total) {
      shard_begin_[cut++] = v + 1;
    }
  }
  for (; cut < workers_; ++cut) shard_begin_[cut] = static_cast<NodeId>(n);

  std::vector<std::uint32_t> node_shard(n);
  round0_work_.assign(workers_, 0);
  for (unsigned s = 0; s < workers_; ++s) {
    for (NodeId v = shard_begin_[s]; v < shard_begin_[s + 1]; ++v) {
      node_shard[v] = s;
      round0_work_[s] += 1 + graph_->degree(v);
    }
  }

  const std::size_t edges = graph_->directed_edge_count();
  edge_owner_.resize(edges);
  for (std::size_t eid = 0; eid < edges; ++eid) {
    edge_owner_[eid] = node_shard[graph_->directed_edge_target(eid)];
  }
}

void Network::ensure_executor() {
  const unsigned want = resolve_threads();
  if (want == workers_ && run_lanes_ <= arena_lanes_) return;

  if (want != workers_) {
    workers_ = want;
    pool_.reset();
    if (workers_ > 1) pool_ = std::make_unique<WorkerPool>(workers_);
    const long long env_grain = env_parallel_grain();
    if (env_grain >= 0) {
      grain_ = static_cast<std::size_t>(env_grain);
    } else if (workers_ == 1) {
      grain_ = 192;  // inert: the single-worker path never dispatches
    } else {
      grain_ = calibrate_grain();
    }
  }
  if (run_lanes_ > arena_lanes_) arena_lanes_ = run_lanes_;

  build_partition();
  // One virtual FIFO per (directed edge, lane): a multiplexed run gives
  // every lane the solo per-edge delivery pacing (see run_multiplexed).
  // Sized for the widest multiplexing seen so far; lane l's queues occupy
  // the contiguous block [l * E, (l + 1) * E), so narrower runs just leave
  // the upper blocks idle.
  arena_.reset(graph_->directed_edge_count() * arena_lanes_, workers_);
  // One fused-transmit mark per virtual edge. assign(0) on rebuild is
  // safe: the never-reset transmit stamp keeps all live tags above 0.
  edge_mark_.assign(graph_->directed_edge_count() * arena_lanes_, 0);
  shards_.assign(workers_, Shard{});
  lanes_.assign(workers_, WorkerLane{});
  staged_.assign(workers_,
                 std::vector<std::vector<PendingSend>>(workers_));
}

void Network::stage_send(unsigned worker, NodeId from, std::uint32_t slot,
                         const Message& m, std::uint16_t msg_lane) {
  if (msg_lane >= run_lanes_) {
    // A multi-lane mux driven through run() instead of run_multiplexed()
    // (or a protocol stamping Message::lane by hand) would otherwise index
    // another lane's -- or nonexistent -- arena queues. Fail loudly in
    // every build mode; the branch is one predictable compare on the send
    // path.
    throw std::logic_error(
        "Network::stage_send: message lane exceeds the run's lane count "
        "(multi-lane protocols must go through run_multiplexed)");
  }
  const auto eid = static_cast<std::uint32_t>(
      graph_->directed_edge_index(from, slot));
  const std::uint32_t veid =
      eid + msg_lane * static_cast<std::uint32_t>(
                           graph_->directed_edge_count());
  std::vector<PendingSend>& bucket = staged_[worker][edge_owner_[eid]];
  bucket.push_back(PendingSend{veid, m});
  bucket.back().msg.lane = msg_lane;
  ++lanes_[worker].sends;
}

void Network::stage_wake(unsigned worker, NodeId self) {
  if (!wake_flag_[self]) {
    wake_flag_[self] = 1;
    // Worker s runs only shard s's nodes, so the waking node is its own.
    shards_[worker].woken.push_back(self);
    ++lanes_[worker].wakes;
  }
}

void Network::dispatch(std::size_t work,
                       void (Network::*phase)(unsigned)) {
  if (workers_ == 1 || work < grain_) {
    for (unsigned s = 0; s < workers_; ++s) (this->*phase)(s);
    return;
  }
  pool_->run([this, phase](unsigned s) { (this->*phase)(s); });
}

void Network::compute_phase(unsigned worker) {
  obs::Span span(obs::Name::kComputeWorker, obs::kPidExecutor,
                 static_cast<std::uint16_t>(worker));
  WorkerLane& lane = lanes_[worker];
  Context ctx;
  ctx.net_ = this;
  ctx.round_ = round_;
  ctx.worker_ = worker;
  for (const NodeId v : shards_[worker].active) {
    std::vector<Delivery>& in = inbox_[v];
    lane.deliveries += in.size();
    ctx.self_ = v;
    ctx.inbox_ = std::span<const Delivery>(in);
    running_->on_round(ctx);
    in.clear();
  }
}

void Network::transmit_phase(unsigned shard) {
  // One FUSED stage-merge-deliver pass per shard, observationally
  // identical to the historical merge-sweep-then-delivery-sweep engine:
  //   A. drain -- edges that entered the round backlogged deliver their
  //      FIFO head (they precede this round's fresh edges in busy order,
  //      and FIFO heads are untouched by this round's appends, so popping
  //      before the replay commutes with the unfused push-then-pop).
  //   B. replay -- staged sends land in ascending global node order;
  //      each idle edge's FIRST message of the round is delivered
  //      directly, bypassing the arena entirely for the dominant depth-1
  //      traffic. Only the congested long tail is enqueued.
  //   C. compact -- surviving old-busy edges keep their positions, fresh
  //      edges that stayed backlogged append in canonical first-send
  //      order: exactly the busy list the unfused engine built.
  obs::Span span(obs::Name::kTransmitFusedShard, obs::kPidExecutor,
                 static_cast<std::uint16_t>(shard));
  Shard& sh = shards_[shard];
  sh.transmitted = 0;

  const auto edges =
      static_cast<std::uint32_t>(graph_->directed_edge_count());
  const std::uint64_t busy_tag = transmit_stamp_ * 2;
  const std::uint64_t fresh_tag = busy_tag + 1;

  // At most one queued message per owned virtual edge (directed edge x
  // lane) moves into its destination inbox per round (all owned
  // destinations are this shard's nodes).
  const auto deliver = [&](std::uint32_t base_eid, const Message& m) {
    const std::uint64_t ep = edge_endpoints_[base_eid];
    const auto to = static_cast<NodeId>(ep & 0xffffffffu);
    const auto from = static_cast<NodeId>(ep >> 32);
    std::vector<Delivery>& in = inbox_[to];
    if (in.empty()) sh.delivered.push_back(to);
    in.push_back(Delivery{m, from});
    ++sh.transmitted;
  };

  // Pass A -- drain the backlog front.
  sh.delivered.clear();
  for (const std::uint32_t eid : sh.busy) {
    edge_mark_[eid] = busy_tag;
    const Message m = arena_.pop(shard, eid);
    deliver(eid - m.lane * edges, m);
  }

  // Pass B -- replay staged sends for owned edges in ascending global
  // node order. Worker w ran exactly shard w's nodes in ascending order,
  // and shards are ascending node ranges, so replaying the buckets in
  // ascending worker order reconstructs the global ascending-node send
  // order at every thread count.
  bool staged_any = false;
  for (unsigned w = 0; w < workers_ && !staged_any; ++w) {
    staged_any = !staged_[w][shard].empty();
  }
  if (staged_any) {
    // Thin rounds (nothing staged for this shard) skip the merge timer:
    // two clock reads per shard per round would dominate the near-zero
    // work they bracket.
    obs::Span merge_span(obs::Name::kMergeShard, obs::kPidExecutor,
                         static_cast<std::uint16_t>(shard));
    const auto merge_start = Clock::now();
    // Observable per-edge depth this round, as the unfused engine counted
    // it: >= 1 for every replayed message (fresh first messages and
    // drained busy heads entered its queues too), so start at 1 -- this
    // branch implies at least one replayed send.
    std::uint32_t round_max = 1;
    const auto emit = [&](std::uint32_t eid, const Message& m) {
      const std::uint64_t mark = edge_mark_[eid];
      if (mark != busy_tag && mark != fresh_tag) {
        // First message for an idle edge: deliver in place.
        edge_mark_[eid] = fresh_tag;
        sh.fresh_scratch.push_back(eid);
        deliver(eid - m.lane * edges, m);
      } else {
        // Congested long tail. +1 corrects the fused ordering: a busy
        // edge's head was already popped in pass A and a fresh edge's
        // first message never enqueued, so the depth the unfused
        // push-then-pop engine observed is one above the arena's.
        const std::uint32_t depth = arena_.push(shard, eid, m) + 1;
        if (depth > round_max) round_max = depth;
      }
    };
    for (unsigned w = 0; w < workers_; ++w) {
      std::vector<PendingSend>& bucket = staged_[w][shard];
      for (const PendingSend& ps : bucket) emit(ps.eid, ps.msg);
      bucket.clear();
    }
    if (round_max > sh.max_backlog) sh.max_backlog = round_max;
    lanes_[shard].merge_ns += ns_since(merge_start);
    // Per-shard-round peak arena depth: the distribution of these is the
    // congestion signal the paper's round bounds are about.
    if (obs::Registry::global().enabled()) {
      obs::Registry::global().histogram("arena.backlog").record(round_max);
    }
    obs::event(obs::Name::kArenaBacklog, 'C', obs::kPidExecutor,
               static_cast<std::uint16_t>(shard), round_max);
  }

  // Pass C -- rebuild the busy list.
  std::size_t keep = 0;
  for (const std::uint32_t eid : sh.busy) {
    if (arena_.size(eid) != 0) sh.busy[keep++] = eid;
  }
  sh.busy.resize(keep);
  for (const std::uint32_t eid : sh.fresh_scratch) {
    if (arena_.size(eid) != 0) sh.busy.push_back(eid);
  }
  sh.fresh_scratch.clear();

  // Assemble the next round's active list (delivered nodes + staged wakes,
  // deduplicated in ascending order) and weigh it for dispatch, so the
  // next compute phase starts without an extra barrier. Wake flags stay
  // set through the assembly: on dense rounds one ascending sweep of the
  // shard's contiguous node range reads them alongside inbox occupancy
  // (nonempty iff delivered this round -- compute cleared every inbox it
  // visited) and yields the sorted deduplicated list with no sort at all;
  // sparse rounds keep the sort + unique, which wins when the shard range
  // dwarfs the touched set.
  sh.active.clear();
  const NodeId node_begin = shard_begin_[shard];
  const NodeId node_end = shard_begin_[shard + 1];
  const std::size_t touched = sh.delivered.size() + sh.woken.size();
  if (touched * 8 >= static_cast<std::size_t>(node_end - node_begin)) {
    for (NodeId v = node_begin; v < node_end; ++v) {
      if (!inbox_[v].empty() || wake_flag_[v] != 0) sh.active.push_back(v);
    }
  } else {
    sh.active.insert(sh.active.end(), sh.delivered.begin(),
                     sh.delivered.end());
    sh.active.insert(sh.active.end(), sh.woken.begin(), sh.woken.end());
    std::sort(sh.active.begin(), sh.active.end());
    sh.active.erase(std::unique(sh.active.begin(), sh.active.end()),
                    sh.active.end());
  }
  for (const NodeId v : sh.woken) wake_flag_[v] = 0;
  sh.woken.clear();
  // Weigh by pending deliveries: the dominant on_round cost is walking the
  // inbox, and it is known exactly here.
  sh.work = sh.active.size();
  for (const NodeId v : sh.active) sh.work += inbox_[v].size();
}

void Network::reset_transients(bool aborted) {
  for (unsigned s = 0; s < workers_; ++s) {
    Shard& sh = shards_[s];
    for (NodeId v : sh.delivered) inbox_[v].clear();
    sh.delivered.clear();
    sh.active.clear();
    sh.work = 0;
    sh.fresh_scratch.clear();
    for (std::uint32_t eid : sh.busy) arena_.clear_queue(s, eid);
    sh.busy.clear();
    // Wakes staged in a final done()-stopped compute still hold their
    // flags.
    for (const NodeId v : sh.woken) wake_flag_[v] = 0;
    sh.woken.clear();
  }
  // Sends staged in a final done()-stopped compute were never merged.
  for (unsigned w = 0; w < workers_; ++w) {
    for (unsigned o = 0; o < workers_; ++o) staged_[w][o].clear();
  }
  if (aborted) {
    // A protocol that threw mid-compute leaves inboxes of active nodes it
    // never reached (compute_phase clears each inbox only after a
    // successful on_round, and the delivered lists were consumed at phase
    // start). Sweep everything so the aborted run cannot leak messages or
    // stuck wake flags into the next protocol.
    for (std::vector<Delivery>& in : inbox_) in.clear();
    wake_flag_.assign(wake_flag_.size(), 0);
  }
  // Only busy edges were cleared above; every other queue must already be
  // empty, or arena reuse would corrupt the next protocol run.
  assert(arena_.all_empty() &&
         "Network::run: non-busy edge queue left non-empty");
}

RunStats Network::run(Protocol& protocol, std::uint64_t max_rounds) {
  return run_with_lanes(protocol, 1, max_rounds);
}

RunStats Network::run(Protocol& protocol, std::vector<Rng>& node_streams,
                      std::uint64_t max_rounds) {
  if (node_streams.size() != node_rngs_.size()) {
    throw std::invalid_argument("Network::run: one stream per node required");
  }
  struct SwapBack {
    std::vector<Rng>& a;
    std::vector<Rng>& b;
    ~SwapBack() { a.swap(b); }
  };
  node_rngs_.swap(node_streams);
  const SwapBack restore{node_rngs_, node_streams};
  return run_with_lanes(protocol, 1, max_rounds);
}

RunStats Network::run_multiplexed(Protocol& protocol, unsigned lanes,
                                  std::uint64_t max_rounds) {
  if (lanes == 0 || lanes > kMaxLanes) {
    throw std::invalid_argument(
        "Network::run_multiplexed: lanes must be in [1, kMaxLanes]");
  }
  // Virtual edge ids (lane * E + eid) live in 32 bits; a graph wide enough
  // to overflow them must fail loudly, not wrap into another lane's FIFOs.
  const std::uint64_t virtual_edges =
      static_cast<std::uint64_t>(lanes) * graph_->directed_edge_count();
  if (virtual_edges > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "Network::run_multiplexed: lanes * directed edges exceeds the "
        "32-bit virtual edge id space");
  }
  return run_with_lanes(protocol, lanes, max_rounds);
}

RunStats Network::run_with_lanes(Protocol& protocol, unsigned lanes,
                                 std::uint64_t max_rounds) {
  const auto start = Clock::now();
  obs::Span run_span(obs::Name::kNetRun, obs::kPidExecutor, 0, lanes);
  run_lanes_ = lanes;
  ensure_executor();
  RunStats stats;
  stats.threads = workers_;
  for (Shard& sh : shards_) {
    sh.max_backlog = 0;
    sh.transmitted = 0;
  }
  for (WorkerLane& lane : lanes_) lane.merge_ns = 0.0;
  running_ = &protocol;
  protocol.on_run_start(workers_);
  try {
    run_loop(protocol, max_rounds, stats);
  } catch (...) {
    // Leave the network reusable even when a protocol throws (or the
    // max_rounds guard fires): the aborted run's backlogs, inboxes and
    // wake flags must not leak into the next protocol.
    running_ = nullptr;
    reset_transients(/*aborted=*/true);
    throw;
  }
  running_ = nullptr;

  double merge_ns = 0.0;
  for (const WorkerLane& lane : lanes_) merge_ns += lane.merge_ns;
  stats.merge_ms = merge_ns / 1e6;
  for (const Shard& sh : shards_) {
    stats.max_backlog = stats.max_backlog > sh.max_backlog
                            ? stats.max_backlog
                            : sh.max_backlog;
  }
  // Reset transient state so the network can host the next protocol run.
  reset_transients(/*aborted=*/false);

  stats.wall_ms = ms_since(start);

  // Fold the run into the metrics registry (once per run, off the hot
  // path).
  if (obs::Registry::global().enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("executor.runs").add(1);
    reg.counter("executor.rounds").add(stats.rounds);
    reg.counter("executor.messages").add(stats.messages);
    reg.gauge("executor.threads").set(double(workers_));
    reg.histogram("arena.backlog_run_max").record(stats.max_backlog);
  }
  return stats;
}

void Network::run_loop(Protocol& protocol, std::uint64_t max_rounds,
                       RunStats& stats) {
  // Round 0 activates every node once so protocols can initialize; this
  // forced wake does not by itself count as a round.
  global_wake_ = true;

  // Observability is resolved once per run: a mid-run toggle takes effect
  // at the next run, which keeps the loop's disabled path at a single
  // relaxed load per event site.
  obs::Histogram* round_hist =
      obs::Registry::global().enabled()
          ? &obs::Registry::global().histogram("executor.round_wall_us")
          : nullptr;

  for (round_ = 0;; ++round_) {
    if (round_ > max_rounds) {
      throw std::runtime_error("Network::run: max_rounds exceeded");
    }
    obs::event(obs::Name::kRound, 'C', obs::kPidExecutor, 0, round_);
    const auto round_start =
        round_hist != nullptr ? Clock::now() : Clock::time_point{};

    if (global_wake_) {
      // Round 0: every node active, weighed by 1 + degree.
      for (unsigned s = 0; s < workers_; ++s) {
        Shard& sh = shards_[s];
        sh.active.clear();
        for (NodeId v = shard_begin_[s]; v < shard_begin_[s + 1]; ++v) {
          sh.active.push_back(v);
        }
        sh.work = round0_work_[s];
      }
    }

    // Compute: every worker runs its own shard's active nodes.
    std::size_t active_work = 0;
    for (const Shard& sh : shards_) active_work += sh.work;
    for (WorkerLane& lane : lanes_) {
      lane.deliveries = 0;
      lane.sends = 0;
      lane.wakes = 0;
    }
    // Phase-boundary failpoint: a throw here unwinds through
    // run_with_lanes' abort cleanup (pool joined, arena drained), the
    // exception-safety path tests/test_resil.cpp exercises.
    resil::failpoint("net.round.compute");
    const auto compute_start = Clock::now();
    {
      obs::Span span(obs::Name::kComputeDispatch, obs::kPidExecutor, 0,
                     active_work);
      dispatch(active_work, &Network::compute_phase);
    }
    stats.compute_ms += ms_since(compute_start);
    global_wake_ = false;

    std::uint64_t deliveries = 0;
    std::uint64_t sends = 0;
    std::uint64_t scheduled = 0;
    for (const WorkerLane& lane : lanes_) {
      deliveries += lane.deliveries;
      sends += lane.sends;
      // Wakes scheduled during this iteration mark local-only work
      // happening in this round (e.g. a lazy walk's self-loop step): they
      // cost a round even with no transmission.
      scheduled += lane.wakes;
    }
    stats.messages += deliveries;

    if (protocol.done()) {
      if (scheduled > 0 || sends > 0) ++stats.rounds;
      if (round_hist != nullptr) {
        round_hist->record(
            static_cast<std::uint64_t>(ns_since(round_start) / 1000.0));
      }
      break;
    }

    // Transmit: merge staged sends, move at most one queued message per
    // directed edge into the next iteration's inboxes, and prepare the
    // next active lists. Each iteration with at least one transmission (or
    // an explicit waiting wake) is one CONGEST round -- compute + send +
    // delivery happen within a single round of the model.
    std::size_t busy_bound = sends;
    for (const Shard& sh : shards_) busy_bound += sh.busy.size();
    resil::failpoint("net.round.transmit");
    // Fresh busy/fresh tags for this round's fused pass; bumped on the
    // driver between phases so shards read a stable stamp. Never reset --
    // stale edge marks from any earlier round or run can't collide.
    ++transmit_stamp_;
    const auto transmit_start = Clock::now();
    {
      obs::Span span(obs::Name::kTransmitDispatch, obs::kPidExecutor, 0,
                     busy_bound);
      dispatch(busy_bound, &Network::transmit_phase);
    }
    stats.transmit_ms += ms_since(transmit_start);
    if (round_hist != nullptr) {
      round_hist->record(
          static_cast<std::uint64_t>(ns_since(round_start) / 1000.0));
    }

    std::uint64_t transmitted = 0;
    for (const Shard& sh : shards_) transmitted += sh.transmitted;
    if (transmitted > 0 || scheduled > 0) ++stats.rounds;

    // Quiescence: nothing queued, nothing active next round.
    bool quiescent = true;
    for (const Shard& sh : shards_) {
      if (!sh.busy.empty() || !sh.active.empty()) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) break;
  }
}

}  // namespace drw::congest
