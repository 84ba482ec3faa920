#include "core/random_walks.hpp"

#include <algorithm>
#include <stdexcept>

#include "congest/mux.hpp"
#include "congest/primitives.hpp"
#include "obs/trace.hpp"

namespace drw::core {

WalkCounters& WalkCounters::operator+=(const WalkCounters& other) noexcept {
  lambda = other.lambda != 0 ? other.lambda : lambda;
  walks_prepared += other.walks_prepared;
  stitches += other.stitches;
  sample_calls += other.sample_calls;
  get_more_walks_calls += other.get_more_walks_calls;
  naive_tail_steps += other.naive_tail_steps;
  tree_builds += other.tree_builds;
  tree_reuses += other.tree_reuses;
  phase1 += other.phase1;
  phase2 += other.phase2;
  regen += other.regen;
  return *this;
}

std::uint64_t StitchEngine::max_connector_visits() const noexcept {
  std::uint64_t best = 0;
  for (std::uint64_t c : connector_visits_) best = std::max(best, c);
  return best;
}

StitchEngine::StitchEngine(congest::Network& net, Params params,
                           std::uint32_t diameter)
    : net_(&net), params_(params), diameter_(diameter),
      stream_salt_(net.graph().node_count() != 0 ? net.node_rng(0)() : 0),
      store_(net.graph().node_count()),
      trajectories_(net.graph().node_count()),
      tree_cache_(net.graph().node_count(), kTreeCacheBytes) {
  if (params_.record_trajectories &&
      params_.transition != TransitionModel::kSimple) {
    // GET-MORE-WALKS tokens travel as anonymous aggregated counts; their
    // reverse replay relies on every transit being an edge traversal.
    throw std::invalid_argument(
        "StitchEngine: walk regeneration requires the simple walk");
  }
  if (params_.record_trajectories) {
    positions_.resize(net.graph().node_count());
  }
}

void StitchEngine::prepare(std::uint64_t k, std::uint64_t l) {
  obs::Span span(obs::Name::kEnginePrepare, obs::kPidService, 0, k);
  const Graph& g = net_->graph();
  // Reset all distributed walk state; a prepare() starts a fresh epoch.
  store_ = WalkStore(g.node_count());
  trajectories_ = TrajectoryStore(g.node_count());
  if (params_.record_trajectories) {
    positions_.assign(g.node_count(), {});
  }
  prepared_ = true;
  prepared_l_ = l;
  prepared_k_ = std::max<std::uint64_t>(k, 1);
  connector_visits_.assign(g.node_count(), 0);

  lambda_ = k <= 1 ? params_.lambda_single(l, diameter_, g.node_count())
                   : params_.lambda_many(k, l, diameter_, g.node_count());
  // MANY-RANDOM-WALKS: "If lambda > l then run the naive random walk
  // algorithm". The same guard is the right call for a single walk.
  naive_mode_ = lambda_ > l;
  if (naive_mode_) return;

  std::vector<ShortWalkPhaseProtocol::Job> jobs;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::uint32_t count =
        params_.walks_per_node(g.degree(v), l, diameter_);
    Rng& rng = net_->node_rng(v);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto extra =
          params_.random_lengths
              ? static_cast<std::uint32_t>(rng.next_below(lambda_))
              : 0u;
      jobs.push_back(ShortWalkPhaseProtocol::Job{v, i, lambda_ + extra});
    }
  }
  const auto prepared_count = static_cast<std::uint64_t>(jobs.size());
  ShortWalkPhaseProtocol phase1(
      g, std::move(jobs), store_,
      params_.record_trajectories ? &trajectories_ : nullptr,
      params_.transition);
  const congest::RunStats stats = net_->run(phase1);
  if (params_.record_trajectories) trajectories_.sort_forward();
  total_ += stats;
  // Stash Phase-1 cost so the next walk() can report it.
  pending_phase1_ = stats;
  pending_prepared_ = prepared_count;
}

WalkResult StitchEngine::walk(NodeId source, std::uint64_t l,
                              std::uint32_t walk_id, bool record_positions) {
  return complete_walk(source, l, walk_id, 0, record_positions);
}

WalkResult StitchEngine::continue_walk(NodeId source, std::uint64_t l,
                                       std::uint32_t walk_id,
                                       std::uint64_t start_step) {
  return complete_walk(source, l, walk_id, start_step, true);
}

WalkResult StitchEngine::walk_deferring_tail(NodeId source, std::uint64_t l,
                                             std::uint32_t walk_id,
                                             bool record_positions) {
  WalkTask task = start_walk_task(source, l, walk_id, record_positions);
  while (!task.finished()) task.step_solo();
  return task.result();
}

WalkResult StitchEngine::complete_walk(NodeId source, std::uint64_t l,
                                       std::uint32_t walk_id,
                                       std::uint64_t start_step,
                                       bool record_positions) {
  if (!deferred_tails_.empty() || !deferred_forward_.empty() ||
      !deferred_reverse_.empty()) {
    throw std::logic_error(
        "StitchEngine::walk: deferred tails are pending (run them first)");
  }
  WalkTask task =
      start_walk_task(source, l, walk_id, record_positions, start_step);
  while (!task.finished()) task.step_solo();
  WalkResult result = task.result();
  const TailOutcome tail = run_deferred_tails();
  if (!tail.destinations.empty()) result.destination = tail.destinations[0];
  result.stats += tail.stats;
  result.counters.regen = run_deferred_regen();
  result.stats += result.counters.regen;
  return result;
}

std::vector<std::uint64_t> StitchEngine::unused_counts_by_source() const {
  std::vector<std::uint64_t> counts(net_->graph().node_count(), 0);
  for (const auto& held : store_.held) {
    for (const HeldToken& t : held) {
      if (!t.used) ++counts[t.source];
    }
  }
  return counts;
}

congest::RunStats StitchEngine::replenish(NodeId source,
                                          std::uint32_t count) {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::replenish: requires a prepared, non-naive engine");
  }
  if (count == 0) return {};
  obs::Span span(obs::Name::kEngineReplenish, obs::kPidService, 0, count);
  GetMoreWalksProtocol more(
      net_->graph(), source, count, lambda_, params_.random_lengths, store_,
      params_.record_trajectories ? &trajectories_ : nullptr,
      params_.transition);
  const congest::RunStats stats = net_->run(more);
  total_ += stats;
  return stats;
}

void StitchEngine::adopt_plan(std::uint64_t k, std::uint64_t l) {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::adopt_plan: requires a prepared, non-naive engine");
  }
  prepared_k_ = std::max<std::uint64_t>(k, 1);
  prepared_l_ = l;
}

StitchEngine::EngineState StitchEngine::release_state() {
  if (!prepared_ || naive_mode_) {
    throw std::logic_error(
        "StitchEngine::release_state: requires a prepared, non-naive engine");
  }
  EngineState state;
  state.store = std::move(store_);
  state.trajectories = std::move(trajectories_);
  state.lambda = lambda_;
  state.prepared_l = prepared_l_;
  state.prepared_k = prepared_k_;
  const std::size_t n = net_->graph().node_count();
  store_ = WalkStore(n);
  trajectories_ = TrajectoryStore(n);
  prepared_ = false;
  return state;
}

void StitchEngine::adopt_state(EngineState state) {
  const std::size_t n = net_->graph().node_count();
  if (state.store.held.size() != n ||
      state.trajectories.forward.size() != n) {
    throw std::invalid_argument(
        "StitchEngine::adopt_state: node count mismatch");
  }
  if (state.lambda == 0) {
    throw std::invalid_argument("StitchEngine::adopt_state: lambda == 0");
  }
  store_ = std::move(state.store);
  trajectories_ = std::move(state.trajectories);
  lambda_ = state.lambda;
  prepared_l_ = state.prepared_l;
  prepared_k_ = std::max<std::uint64_t>(state.prepared_k, 1);
  naive_mode_ = false;
  prepared_ = true;
  connector_visits_.assign(n, 0);
  pending_phase1_ = {};
  pending_prepared_ = 0;
}

void StitchEngine::restore_tree_cache(std::span<const NodeId> roots) {
  tree_cache_.restore(*net_, roots);
}

void StitchEngine::restore_connector_visits(
    std::vector<std::uint64_t> visits) {
  if (visits.size() != net_->graph().node_count()) {
    throw std::invalid_argument(
        "StitchEngine::restore_connector_visits: node count mismatch");
  }
  connector_visits_ = std::move(visits);
}

PositionTable StitchEngine::drain_positions() {
  PositionTable out = std::move(positions_);
  positions_ = PositionTable();
  if (params_.record_trajectories) {
    positions_.resize(net_->graph().node_count());
  }
  return out;
}

StitchEngine::TailOutcome StitchEngine::run_deferred_tails() {
  TailOutcome outcome;
  if (deferred_tails_.empty()) return outcome;
  obs::Span span(obs::Name::kEngineTails, obs::kPidService, 0,
                 deferred_tails_.size());
  // Canonical ascending-walk_id order: tail tokens draw from the SHARED
  // node streams, so the job order must not depend on the mux scheduler's
  // task completion order.
  std::stable_sort(deferred_tails_.begin(), deferred_tails_.end(),
                   [](const NaiveSegmentProtocol::Job& a,
                      const NaiveSegmentProtocol::Job& b) {
                     return a.walk_id < b.walk_id;
                   });
  for (const auto& job : deferred_tails_) {
    outcome.walk_ids.push_back(job.walk_id);
  }
  NaiveSegmentProtocol protocol(
      net_->graph(), std::move(deferred_tails_),
      params_.record_trajectories ? &positions_ : nullptr,
      params_.transition);
  deferred_tails_.clear();
  outcome.stats = net_->run(protocol);
  outcome.destinations = protocol.destinations();
  total_ += outcome.stats;
  return outcome;
}

// --------------------------------------------------------------- WalkTask

StitchEngine::WalkTask::WalkTask(StitchEngine& engine, NodeId source,
                                 std::uint64_t l, std::uint32_t walk_id,
                                 bool record_positions,
                                 std::uint64_t start_step)
    : engine_(&engine), source_(source), l_(l), walk_id_(walk_id),
      start_step_(start_step),
      record_(engine.params_.record_trajectories && record_positions),
      current_(source) {
  result_.counters.lambda = engine.lambda_;
  result_.counters.phase1 = engine.pending_phase1_;
  result_.counters.walks_prepared = engine.pending_prepared_;
  engine.pending_phase1_ = {};
  engine.pending_prepared_ = 0;
  result_.stats += result_.counters.phase1;
  // The source knows it is step 0 (a continuation's source was recorded
  // as the previous segment's last step).
  if (record_ && start_step == 0) {
    engine.positions_[source].push_back(WalkPosition{walk_id, 0});
  }
  begin_stitch_or_finish();
}

void StitchEngine::WalkTask::begin_stitch_or_finish() {
  // "While length of walk completed is at most l - 2*lambda" (Algorithm 1).
  // A naive-mode engine (lambda > l) never enters the loop.
  if (completed_ + 2 * static_cast<std::uint64_t>(engine_->lambda_) <= l_) {
    if (rngs_.empty()) {
      rngs_ = congest::ProtocolMux::derive_lane_rngs(
          engine_->net_->seed(), engine_->stream_salt_ ^ walk_id_,
          engine_->net_->graph().node_count());
    }
    own_tree_.reset();
    tree_ = engine_->tree_cache_.find(current_);
    if (tree_ != nullptr) {
      // Sweep 1's tree is a function of the root alone: reuse it.
      ++result_.counters.tree_reuses;
      protocol_ = std::make_unique<SampleConvergecast>(
          *tree_, engine_->store_, current_);
      step_ = Step::kSample;
    } else {
      protocol_ = std::make_unique<congest::BfsTreeProtocol>(
          engine_->net_->graph(), current_);
      step_ = Step::kBfs;
    }
  } else {
    finish();
  }
}

void StitchEngine::WalkTask::advance(const congest::RunStats& lane_stats) {
  result_.stats += lane_stats;
  result_.counters.phase2 += lane_stats;
  switch (step_) {
    case Step::kBfs: {
      auto& bfs = static_cast<congest::BfsTreeProtocol&>(*protocol_);
      ++result_.counters.tree_builds;
      congest::BfsTree built = bfs.take_tree();
      tree_ = engine_->tree_cache_.insert(std::move(built));
      if (tree_ == nullptr) {
        own_tree_ = std::make_unique<congest::BfsTree>(std::move(built));
        tree_ = own_tree_.get();
      }
      protocol_ = std::make_unique<SampleConvergecast>(*tree_, engine_->store_,
                                                       current_);
      step_ = Step::kSample;
      break;
    }
    case Step::kSample:
    case Step::kResample: {
      auto& sample = static_cast<SampleConvergecast&>(*protocol_);
      candidate_ = sample.result();
      ++result_.counters.sample_calls;
      if (candidate_.count != 0) {
        // Sweep 3: broadcast down the tree to delete the sampled token at
        // its holder and hand the walk token to it.
        WalkStore* store = &engine_->store_;
        const auto held_index = candidate_.held_index;
        protocol_ = std::make_unique<congest::BroadcastProtocol>(
            *tree_,
            congest::Message{
                0, {candidate_.holder, candidate_.held_index, 0, 0}},
            [store, held_index](NodeId at, const congest::Message& m) {
              if (at != static_cast<NodeId>(m.f[0])) return;
              auto& held = store->held[at][held_index];
              if (held.used) {
                throw std::logic_error("StitchEngine: token already used");
              }
              held.used = true;
            });
        step_ = Step::kCommit;
        break;
      }
      if (step_ == Step::kResample) {
        throw std::logic_error("StitchEngine: GET-MORE-WALKS yielded none");
      }
      // All short walks from the connector are used up: GET-MORE-WALKS.
      // When the engine serves k walks (MANY-RANDOM-WALKS), connectors can
      // recur up to k times as often, so the batch is scaled by k -- the
      // count aggregation makes the bigger batch free (still O(lambda)
      // rounds, Lemma 2.2).
      const Params& params = engine_->params_;
      const std::uint32_t count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(
              static_cast<std::uint64_t>(params.get_more_walks_count(
                  l_, engine_->lambda_, engine_->diameter_)) *
                  engine_->prepared_k_,
              1u << 20));
      protocol_ = std::make_unique<GetMoreWalksProtocol>(
          engine_->net_->graph(), current_, count, engine_->lambda_,
          params.random_lengths, engine_->store_,
          params.record_trajectories ? &engine_->trajectories_ : nullptr,
          params.transition);
      step_ = Step::kGetMore;
      break;
    }
    case Step::kGetMore:
      ++result_.counters.get_more_walks_calls;
      protocol_ = std::make_unique<SampleConvergecast>(*tree_, engine_->store_,
                                                       current_);
      step_ = Step::kResample;
      break;
    case Step::kCommit:
      segments_.push_back(
          Segment{candidate_, current_, start_step_ + completed_});
      ++engine_->connector_visits_[current_];
      completed_ += candidate_.length;
      current_ = candidate_.holder;
      ++result_.counters.stitches;
      begin_stitch_or_finish();
      break;
    case Step::kDone:
      throw std::logic_error("WalkTask::advance: task already finished");
  }
}

void StitchEngine::WalkTask::finish() {
  step_ = Step::kDone;
  protocol_.reset();
  result_.destination = current_;

  // "Walk naively until l steps are completed": deferred into the engine's
  // shared concurrent tail run (the source/connector position is already
  // recorded, so record_start stays false).
  const std::uint64_t tail = l_ - completed_;
  if (tail > 0) {
    result_.counters.naive_tail_steps = tail;
    engine_->deferred_tails_.push_back(NaiveSegmentProtocol::Job{
        current_, tail, walk_id_, start_step_ + completed_, false, record_});
  }

  // Regeneration jobs (Section 2.2), deferred into one batched replay.
  if (record_) {
    for (const Segment& s : segments_) {
      if (s.token.kind == WalkKind::kPhase1) {
        engine_->deferred_forward_.push_back(RegenerateProtocol::ForwardJob{
            s.from, s.token.seq, s.offset, walk_id_});
      } else {
        const HeldToken& held =
            engine_->store_.held[s.token.holder][s.token.held_index];
        engine_->deferred_reverse_.push_back(RegenerateProtocol::ReverseJob{
            s.token.holder, s.from, s.token.length, held.arrival_slot,
            s.offset, walk_id_});
      }
    }
  }
}

congest::RunStats StitchEngine::WalkTask::step_solo() {
  const congest::RunStats stats = engine_->net_->run(*protocol_, rngs_);
  engine_->total_ += stats;
  advance(stats);
  return stats;
}

StitchEngine::WalkTask StitchEngine::start_walk_task(
    NodeId source, std::uint64_t l, std::uint32_t walk_id,
    bool record_positions, std::uint64_t start_step) {
  if (!prepared_) throw std::logic_error("StitchEngine: prepare() first");
  if (l > prepared_l_) {
    throw std::logic_error("StitchEngine: walk longer than prepared for");
  }
  return WalkTask(*this, source, l, walk_id, record_positions, start_step);
}

congest::RunStats StitchEngine::run_deferred_regen() {
  if (deferred_forward_.empty() && deferred_reverse_.empty()) return {};
  obs::Span span(obs::Name::kEngineRegen, obs::kPidService, 0,
                 deferred_forward_.size() + deferred_reverse_.size());
  // Canonical ascending-walk_id order (stable: preserves each walk's
  // segment order): reverse replay consumes shared anonymous fragments, so
  // the job order must not depend on task completion order.
  std::stable_sort(deferred_forward_.begin(), deferred_forward_.end(),
                   [](const RegenerateProtocol::ForwardJob& a,
                      const RegenerateProtocol::ForwardJob& b) {
                     return a.walk_id < b.walk_id;
                   });
  std::stable_sort(deferred_reverse_.begin(), deferred_reverse_.end(),
                   [](const RegenerateProtocol::ReverseJob& a,
                      const RegenerateProtocol::ReverseJob& b) {
                     return a.walk_id < b.walk_id;
                   });
  RegenerateProtocol regen(net_->graph(), std::move(deferred_forward_),
                           std::move(deferred_reverse_), trajectories_,
                           positions_);
  deferred_forward_.clear();
  deferred_reverse_.clear();
  const congest::RunStats stats = net_->run(regen);
  total_ += stats;
  return stats;
}

SingleWalkOutput single_random_walk(congest::Network& net, NodeId source,
                                    std::uint64_t l, const Params& params,
                                    std::uint32_t diameter) {
  StitchEngine engine(net, params, diameter);
  engine.prepare(1, l);
  SingleWalkOutput out;
  out.result = engine.walk(source, l, 0);
  out.positions = engine.positions();
  return out;
}

WalkResult naive_random_walk(congest::Network& net, NodeId source,
                             std::uint64_t l, TransitionModel model) {
  NaiveSegmentProtocol::Job job{source, l, 0, 0, true};
  NaiveSegmentProtocol protocol(net.graph(), {job}, nullptr, model);
  WalkResult result;
  result.stats = net.run(protocol);
  result.destination = protocol.destinations()[0];
  result.counters.naive_tail_steps = l;
  return result;
}

ManyWalksOutput many_random_walks(congest::Network& net,
                                  std::span<const NodeId> sources,
                                  std::uint64_t l, const Params& params,
                                  std::uint32_t diameter) {
  ManyWalksOutput out;
  if (sources.empty()) return out;

  StitchEngine engine(net, params, diameter);
  engine.prepare(sources.size(), l);

  // "If lambda > l then run the naive random walk algorithm, i.e., the
  // sources find walks of length l simultaneously by sending tokens": a
  // naive-mode engine defers each whole walk as one token job. Otherwise
  // the k walks are stitched one at a time (Section 2.3). Either way the
  // naive tails run concurrently at the end -- k independent tail tokens
  // cost O(k + 2*lambda) rounds together instead of k * 2*lambda
  // sequentially, keeping the total within Theorem 2.8's
  // O~(sqrt(k l D) + k).
  out.used_naive_fallback = engine.naive_mode();
  for (std::uint32_t i = 0; i < sources.size(); ++i) {
    WalkResult walk = engine.walk_deferring_tail(sources[i], l, i);
    out.destinations.push_back(walk.destination);
    out.stats += walk.stats;
    out.counters += walk.counters;
  }
  const StitchEngine::TailOutcome tails = engine.run_deferred_tails();
  out.stats += tails.stats;
  for (std::size_t t = 0; t < tails.walk_ids.size(); ++t) {
    out.destinations[tails.walk_ids[t]] = tails.destinations[t];
  }
  out.counters.regen = engine.run_deferred_regen();
  out.stats += out.counters.regen;
  out.counters.lambda = engine.lambda();
  out.positions = engine.drain_positions();
  return out;
}

}  // namespace drw::core
