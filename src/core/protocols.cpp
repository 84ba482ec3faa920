#include "core/protocols.hpp"

#include <stdexcept>

namespace drw::core {

namespace {

constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

}  // namespace

// ----------------------------------------------------------------- Phase 1

ShortWalkPhaseProtocol::ShortWalkPhaseProtocol(const Graph& g,
                                               std::vector<Job> jobs,
                                               WalkStore& store,
                                               TrajectoryStore* trajectories,
                                               TransitionModel model)
    : graph_(&g), jobs_by_node_(g.node_count()), store_(&store),
      trajectories_(trajectories), model_(model),
      staying_(g.node_count()) {
  if (trajectories != nullptr && model != TransitionModel::kSimple) {
    throw std::invalid_argument(
        "ShortWalkPhase: trajectory recording requires the simple walk");
  }
  for (const Job& job : jobs) jobs_by_node_[job.origin].push_back(job);
}

void ShortWalkPhaseProtocol::route(congest::Context& ctx, NodeId source,
                                   std::uint32_t seq, std::uint32_t total,
                                   std::uint32_t remaining,
                                   std::uint32_t arrival_slot) {
  const NodeId v = ctx.self();
  if (remaining == 0) {
    store_->held[v].push_back(HeldToken{source, seq, total, WalkKind::kPhase1,
                                        arrival_slot == kNoSlot ? 0
                                                                : arrival_slot,
                                        false});
    return;
  }
  const std::uint32_t slot = sample_step(ctx.rng(), *graph_, v, model_);
  if (slot == kStaySlot) {
    // Self-loop step: one round elapses, no message travels.
    staying_[v].push_back(
        Pending{source, seq, total, remaining - 1u, arrival_slot});
    ctx.wake_me();
    return;
  }
  if (trajectories_ != nullptr) {
    const std::uint32_t hop = total - remaining;
    trajectories_->forward[v].push_back(
        ForwardRecord{TrajectoryStore::key(source, seq), hop, slot});
  }
  ctx.send(slot, congest::Message{kToken, {source, seq, total,
                                           remaining - 1u}});
}

void ShortWalkPhaseProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (const Job& job : jobs_by_node_[v]) {
      route(ctx, v, job.seq, job.length, job.length, kNoSlot);
    }
    jobs_by_node_[v].clear();
    return;
  }
  if (!staying_[v].empty()) {
    std::vector<Pending> stayed;
    stayed.swap(staying_[v]);
    for (const Pending& p : stayed) {
      route(ctx, p.source, p.seq, p.total, p.remaining, p.arrival_slot);
    }
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kToken) continue;
    route(ctx, static_cast<NodeId>(d.msg.f[0]),
          static_cast<std::uint32_t>(d.msg.f[1]),
          static_cast<std::uint32_t>(d.msg.f[2]),
          static_cast<std::uint32_t>(d.msg.f[3]), ctx.slot_of(d.from));
  }
}

// --------------------------------------------------------- GET-MORE-WALKS

GetMoreWalksProtocol::GetMoreWalksProtocol(const Graph& g, NodeId source,
                                           std::uint32_t count,
                                           std::uint32_t lambda, bool extend,
                                           WalkStore& store,
                                           TrajectoryStore* trajectories,
                                           TransitionModel model)
    : graph_(&g), source_(source), initial_count_(count), lambda_(lambda),
      extend_(extend), store_(&store), trajectories_(trajectories),
      gen_(trajectories != nullptr ? trajectories->new_generation() : 0),
      model_(model), staying_(g.node_count(), {0, 0}) {
  if (lambda == 0) throw std::invalid_argument("GetMoreWalks: lambda == 0");
  if (trajectories != nullptr && model != TransitionModel::kSimple) {
    throw std::invalid_argument(
        "GetMoreWalks: trajectory recording requires the simple walk");
  }
}

void GetMoreWalksProtocol::process(
    congest::Context& ctx,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& arrivals,
    std::uint32_t steps) {
  const NodeId v = ctx.self();

  // Forwarded-token counts are accumulated across all arrival edges so each
  // neighbor receives at most ONE aggregate message per round ("only the
  // count of the number of walks along an edge are passed to the node across
  // the edge") -- this is what keeps GET-MORE-WALKS congestion-free.
  std::vector<std::uint64_t> per_slot(ctx.degree(), 0);

  for (const auto& [arrival_slot, count] : arrivals) {
    std::uint64_t surviving = count;
    if (steps >= lambda_) {
      if (!extend_) {
        // PODC 2009 preset: all walks have length exactly lambda.
        for (std::uint64_t i = 0; i < count; ++i) {
          store_->held[v].push_back(HeldToken{source_, gen_, steps,
                                              WalkKind::kGetMore,
                                              arrival_slot, false});
        }
        continue;
      }
      // Reservoir extension (Algorithm 2, lines 8-10): stop each surviving
      // token with probability 1/(lambda - i) at extension step i.
      const std::uint32_t i = steps - lambda_;
      const double stop_probability = 1.0 / static_cast<double>(lambda_ - i);
      std::uint64_t stopped = 0;
      for (std::uint64_t t = 0; t < count; ++t) {
        if (ctx.rng().next_bool(stop_probability)) ++stopped;
      }
      for (std::uint64_t t = 0; t < stopped; ++t) {
        store_->held[v].push_back(HeldToken{source_, gen_, steps,
                                            WalkKind::kGetMore, arrival_slot,
                                            false});
      }
      surviving = count - stopped;
    }
    for (std::uint64_t t = 0; t < surviving; ++t) {
      const std::uint32_t slot = sample_step(ctx.rng(), *graph_, v, model_);
      if (slot == kStaySlot) {
        // Aggregated self-loop: carried locally to the next round.
        ++staying_[v].first;
        staying_[v].second = steps + 1;
        ctx.wake_me();
        continue;
      }
      ++per_slot[slot];
      if (trajectories_ != nullptr) {
        trajectories_->append_gmw(v, GmwRecord{gen_, steps, arrival_slot,
                                               slot});
      }
    }
  }

  for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
    if (per_slot[slot] == 0) continue;
    ctx.send(slot, congest::Message{kAggregate,
                                    {source_, per_slot[slot], steps + 1u,
                                     0}});
  }
}

void GetMoreWalksProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    if (v == source_ && initial_count_ > 0) {
      process(ctx, {{kNoSlot, initial_count_}}, 0);
    }
    return;
  }
  // All same-round arrivals carry the same hop count (the aggregate tokens
  // move in lockstep: one message per edge per round, so nothing queues);
  // locally-stayed tokens from the previous round share that hop count too.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> arrivals;
  std::uint32_t steps = 0;
  bool have_steps = false;
  if (staying_[v].first > 0) {
    steps = staying_[v].second;
    have_steps = true;
    arrivals.emplace_back(kNoSlot, staying_[v].first);
    staying_[v] = {0, 0};
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kAggregate) continue;
    const auto msg_steps = static_cast<std::uint32_t>(d.msg.f[2]);
    if (have_steps && msg_steps != steps) {
      throw std::logic_error("GetMoreWalks: lockstep violated");
    }
    steps = msg_steps;
    have_steps = true;
    arrivals.emplace_back(ctx.slot_of(d.from), d.msg.f[1]);
  }
  if (!arrivals.empty()) process(ctx, arrivals, steps);
}

// ------------------------------------------------------ sample convergecast

SampleConvergecast::SampleConvergecast(const congest::BfsTree& tree,
                                       const WalkStore& store, NodeId source)
    : tree_(&tree), store_(&store), source_(source) {
  const std::size_t n = store.held.size();
  acc_.resize(n);
  pending_children_.resize(n);
  sent_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) pending_children_[v] = tree_->child_count(v);
}

void SampleConvergecast::absorb(congest::Context& ctx,
                                const Candidate& incoming) {
  Candidate& acc = acc_[ctx.self()];
  if (incoming.count == 0) return;
  const std::uint64_t total = acc.count + incoming.count;
  // Weighted reservoir merge: keep the incoming candidate with probability
  // proportional to its group size; the result is uniform over the union.
  const double p = static_cast<double>(incoming.count) /
                   static_cast<double>(total);
  if (acc.count == 0 || ctx.rng().next_bool(p)) {
    const std::uint64_t keep_total = total;
    acc = incoming;
    acc.count = keep_total;
  } else {
    acc.count = total;
  }
}

void SampleConvergecast::maybe_forward(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (sent_[v] || pending_children_[v] != 0 || v == tree_->root) return;
  sent_[v] = 1;
  const Candidate& c = acc_[v];
  ctx.send_to(tree_->parent[v],
              congest::Message{
                  kCandidate,
                  {c.holder, c.count,
                   (static_cast<std::uint64_t>(c.kind) << 32) | c.length,
                   (static_cast<std::uint64_t>(c.seq) << 32) | c.held_index}});
}

void SampleConvergecast::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    // Sample the node's own candidate uniformly among its unused source-v
    // tokens (reservoir over the scan).
    Candidate own;
    const auto& held = store_->held[v];
    for (std::uint32_t idx = 0; idx < held.size(); ++idx) {
      const HeldToken& t = held[idx];
      if (t.used || t.source != source_) continue;
      ++own.count;
      if (ctx.rng().next_below(own.count) == 0) {
        own.holder = v;
        own.length = t.length;
        own.kind = t.kind;
        own.seq = t.seq;
        own.held_index = idx;
      }
    }
    const std::uint64_t preserved = own.count;
    acc_[v] = own;
    acc_[v].count = preserved;
    maybe_forward(ctx);
    return;
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kCandidate) continue;
    Candidate incoming;
    incoming.holder = static_cast<NodeId>(d.msg.f[0]);
    incoming.count = d.msg.f[1];
    incoming.kind = static_cast<WalkKind>(d.msg.f[2] >> 32);
    incoming.length = static_cast<std::uint32_t>(d.msg.f[2]);
    incoming.seq = static_cast<std::uint32_t>(d.msg.f[3] >> 32);
    incoming.held_index = static_cast<std::uint32_t>(d.msg.f[3]);
    absorb(ctx, incoming);
    --pending_children_[v];
  }
  maybe_forward(ctx);
}

// ----------------------------------------------------------- naive segment

NaiveSegmentProtocol::NaiveSegmentProtocol(const Graph& g,
                                           std::vector<Job> jobs,
                                           PositionTable* positions,
                                           TransitionModel model)
    : graph_(&g), jobs_(std::move(jobs)), jobs_by_node_(g.node_count()),
      positions_(positions), model_(model), staying_(g.node_count()) {
  destinations_.assign(jobs_.size(), kInvalidNode);
  for (std::uint32_t j = 0; j < jobs_.size(); ++j) {
    jobs_by_node_[jobs_[j].start].push_back(j);
  }
}

void NaiveSegmentProtocol::advance(congest::Context& ctx, std::uint32_t job,
                                   std::uint64_t remaining,
                                   std::uint64_t position) {
  const NodeId v = ctx.self();
  if (positions_ != nullptr && jobs_[job].record) {
    (*positions_)[v].push_back(WalkPosition{jobs_[job].walk_id, position});
  }
  if (remaining == 0) {
    destinations_[job] = v;
    return;
  }
  const std::uint32_t slot = sample_step(ctx.rng(), *graph_, v, model_);
  if (slot == kStaySlot) {
    staying_[v].push_back(Pending{job, remaining - 1, position + 1});
    ctx.wake_me();
    return;
  }
  ctx.send(slot, congest::Message{kStep, {job, remaining - 1, position + 1,
                                          0}});
}

void NaiveSegmentProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (std::uint32_t j : jobs_by_node_[v]) {
      const Job& job = jobs_[j];
      if (positions_ != nullptr && job.record && job.record_start) {
        (*positions_)[v].push_back(WalkPosition{job.walk_id, job.base_step});
      }
      if (job.steps == 0) {
        destinations_[j] = v;
        continue;
      }
      const std::uint32_t slot = sample_step(ctx.rng(), *graph_, v, model_);
      if (slot == kStaySlot) {
        staying_[v].push_back(
            Pending{j, job.steps - 1, job.base_step + 1});
        ctx.wake_me();
        continue;
      }
      ctx.send(slot, congest::Message{kStep, {j, job.steps - 1,
                                              job.base_step + 1, 0}});
    }
    return;
  }
  if (!staying_[v].empty()) {
    std::vector<Pending> stayed;
    stayed.swap(staying_[v]);
    for (const Pending& p : stayed) {
      advance(ctx, p.job, p.remaining, p.position);
    }
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kStep) continue;
    advance(ctx, static_cast<std::uint32_t>(d.msg.f[0]), d.msg.f[1],
            d.msg.f[2]);
  }
}

// ------------------------------------------------------------ regeneration

RegenerateProtocol::RegenerateProtocol(const Graph& g,
                                       std::vector<ForwardJob> forward,
                                       std::vector<ReverseJob> reverse,
                                       TrajectoryStore& trajectories,
                                       PositionTable& positions)
    : forward_by_node_(g.node_count()), reverse_by_node_(g.node_count()),
      trajectories_(&trajectories), positions_(&positions) {
  for (const ForwardJob& job : forward) {
    forward_by_node_[job.source].push_back(job);
  }
  for (const ReverseJob& job : reverse) {
    reverse_by_node_[job.holder].push_back(job);
  }
}

void RegenerateProtocol::forward_step(congest::Context& ctx, NodeId source,
                                      std::uint32_t seq, std::uint64_t offset,
                                      std::uint32_t hop,
                                      std::uint32_t walk_id) {
  const NodeId v = ctx.self();
  if (hop > 0) {
    (*positions_)[v].push_back(WalkPosition{walk_id, offset + hop});
  }
  const ForwardRecord* record =
      trajectories_->find_forward(v, TrajectoryStore::key(source, seq), hop);
  // No outgoing record at this hop: v is the walk's endpoint; replay done.
  if (record == nullptr) return;
  ctx.send(record->next_slot,
           congest::Message{
               kForward,
               {(static_cast<std::uint64_t>(walk_id) << 32) | source, seq,
                offset, hop + 1u}});
}

void RegenerateProtocol::reverse_step(congest::Context& ctx, NodeId source,
                                      std::uint32_t gen, std::uint64_t offset,
                                      std::uint32_t hop, std::uint32_t walk_id,
                                      std::uint32_t via_slot) {
  const NodeId v = ctx.self();
  if (hop > 0) {
    (*positions_)[v].push_back(WalkPosition{walk_id, offset + hop});
  }
  if (hop == 0) return;  // back at the short walk's source
  // Any unspent record of this generation whose next hop went toward the
  // node we came from will do: the generation's tokens are exchangeable.
  const std::uint32_t prev_slot = trajectories_->take_gmw(v, gen, hop,
                                                          via_slot);
  if (prev_slot == TrajectoryStore::kSpentSlot) {
    throw std::logic_error("RegenerateProtocol: no record matches edge");
  }
  ctx.send(prev_slot,
           congest::Message{
               kReverse,
               {(static_cast<std::uint64_t>(walk_id) << 32) | source, gen,
                offset, hop - 1u}});
}

void RegenerateProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (const ForwardJob& job : forward_by_node_[v]) {
      forward_step(ctx, job.source, job.seq, job.offset, 0, job.walk_id);
    }
    for (const ReverseJob& job : reverse_by_node_[v]) {
      (*positions_)[v].push_back(
          WalkPosition{job.walk_id, job.offset + job.length});
      if (job.length > 0) {
        ctx.send(job.arrival_slot,
                 congest::Message{
                     kReverse,
                     {(static_cast<std::uint64_t>(job.walk_id) << 32) |
                          job.source,
                      job.gen, job.offset, job.length - 1u}});
      }
    }
    return;
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    const auto walk_id = static_cast<std::uint32_t>(d.msg.f[0] >> 32);
    const auto source = static_cast<NodeId>(d.msg.f[0]);
    if (d.msg.type == kForward) {
      forward_step(ctx, source, static_cast<std::uint32_t>(d.msg.f[1]),
                   d.msg.f[2], static_cast<std::uint32_t>(d.msg.f[3]),
                   walk_id);
    } else if (d.msg.type == kReverse) {
      reverse_step(ctx, source, static_cast<std::uint32_t>(d.msg.f[1]),
                   d.msg.f[2], static_cast<std::uint32_t>(d.msg.f[3]),
                   walk_id, ctx.slot_of(d.from));
    }
  }
}

}  // namespace drw::core
