#include "core/protocols.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "util/rng.hpp"

namespace drw::core {

namespace {

constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

/// Sorts `nodes` ascending without repeats: a round-0 start set.
void make_start_set(std::vector<NodeId>& nodes) {
  if (!std::is_sorted(nodes.begin(), nodes.end())) {
    std::sort(nodes.begin(), nodes.end());
  }
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

}  // namespace

// --------------------------------------------------------- GET-MORE-WALKS

GetMoreWalksProtocol::GetMoreWalksProtocol(const Graph& g,
                                           std::vector<TopUp> topups,
                                           std::uint32_t lambda, bool extend,
                                           WalkStore& store,
                                           TrajectoryStore* trajectories,
                                           TransitionModel model)
    : graph_(&g), topups_(std::move(topups)), lambda_(lambda), extend_(extend),
      store_(&store), trajectories_(trajectories),
      gen_base_(trajectories != nullptr
                    ? trajectories->new_generations(
                          static_cast<std::uint32_t>(topups_.size()))
                    : 0),
      model_(model), staying_(g.node_count()) {
  if (lambda == 0) throw std::invalid_argument("GetMoreWalks: lambda == 0");
  if (trajectories != nullptr && model != TransitionModel::kSimple) {
    throw std::invalid_argument(
        "GetMoreWalks: trajectory recording requires the simple walk");
  }
  for (std::uint32_t i = 0; i < topups_.size(); ++i) {
    const TopUp& topup = topups_[i];
    if (topup.source >= g.node_count()) {
      throw std::invalid_argument("GetMoreWalks: source out of range");
    }
    if (topup.count == 0) continue;
    staying_[topup.source].push_back(
        Arrival{gen_base_ + i, 0, kNoSlot, 0, topup.count});
    start_.push_back(topup.source);
  }
  make_start_set(start_);
}

void GetMoreWalksProtocol::process(congest::Context& ctx,
                                   std::span<const Arrival> group) {
  const NodeId v = ctx.self();
  const std::uint32_t gen = group.front().gen;
  const std::uint32_t steps = group.front().steps;
  const NodeId source = topups_[gen - gen_base_].source;

  // How many of `count` tokens stop here: all of them at lambda hops in the
  // PODC 2009 preset, else each surviving token with probability
  // 1/(lambda - i) at extension step i (Algorithm 2, lines 8-10).
  const auto stopped = [&](std::uint64_t count) -> std::uint64_t {
    if (steps < lambda_) return 0;
    if (!extend_) return count;
    const double stop_probability =
        1.0 / static_cast<double>(lambda_ - (steps - lambda_));
    std::uint64_t stops = 0;
    for (std::uint64_t t = 0; t < count; ++t) {
      if (ctx.rng().next_bool(stop_probability)) ++stops;
    }
    return stops;
  };
  const auto hold = [&](std::uint64_t count, std::uint32_t arrival_slot) {
    for (std::uint64_t t = 0; t < count; ++t) {
      store_->held[v].push_back(
          HeldToken{source, gen, steps, arrival_slot, false});
    }
  };
  // One token's next step: a slot (recorded as the generation's hop) or
  // kStaySlot.
  const auto step = [&](std::uint32_t arrival_slot) {
    const std::uint32_t slot = sample_step(ctx.rng(), *graph_, v, model_);
    if (slot != kStaySlot && trajectories_ != nullptr) {
      trajectories_->append_gmw(v, GmwRecord{gen, steps, arrival_slot, slot});
    }
    return slot;
  };
  // Self-loop stays are aggregated and carried locally to the next round.
  const auto stay = [&](std::uint64_t count) {
    staying_[v].push_back(Arrival{gen, steps + 1, kNoSlot, 0, count});
    ctx.wake_me();
  };
  const auto send = [&](std::uint32_t slot, std::uint64_t count) {
    ctx.send(slot, congest::Message{kAggregate, {gen, count, steps + 1u, 0}});
  };

  if (group.size() == 1 && group.front().count == 1) {
    // One token, as in most of Phase 1's groups: the draws below, in their
    // order, without the degree-long scratch.
    const std::uint32_t arrival_slot = group.front().slot;
    if (stopped(1) == 1) {
      hold(1, arrival_slot);
      return;
    }
    const std::uint32_t slot = step(arrival_slot);
    if (slot == kStaySlot) {
      stay(1);
    } else {
      send(slot, 1);
    }
    return;
  }

  // Forwarded-token counts are accumulated across all arrival edges so each
  // neighbor receives at most ONE aggregate message per group ("only the
  // count of the number of walks along an edge are passed to the node across
  // the edge") -- this is what keeps a one-source run congestion-free.
  // Scratch is per executor thread (a node's on_round runs on one worker
  // and never re-enters), so no token hop pays an allocation.
  thread_local std::vector<std::uint64_t> per_slot;
  per_slot.assign(ctx.degree(), 0);
  std::uint64_t stayed = 0;
  for (const Arrival& arrival : group) {
    const std::uint64_t stops = stopped(arrival.count);
    hold(stops, arrival.slot);
    for (std::uint64_t t = stops; t < arrival.count; ++t) {
      const std::uint32_t slot = step(arrival.slot);
      if (slot == kStaySlot) {
        ++stayed;
      } else {
        ++per_slot[slot];
      }
    }
  }
  if (stayed > 0) stay(stayed);
  for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
    if (per_slot[slot] != 0) send(slot, per_slot[slot]);
  }
}

void GetMoreWalksProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  thread_local std::vector<Arrival> arrivals;  // per-thread, as in process()
  // The tokens standing here first (the node's own entries in round 0),
  // then the inbox in arrival order.
  arrivals.assign(staying_[v].begin(), staying_[v].end());
  staying_[v].clear();
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kAggregate) continue;
    arrivals.push_back(Arrival{static_cast<std::uint32_t>(d.msg.f[0]),
                               static_cast<std::uint32_t>(d.msg.f[2]),
                               ctx.slot_of(d.from),
                               static_cast<std::uint32_t>(arrivals.size()),
                               d.msg.f[1]});
  }
  // One generation's aggregates move in lockstep, but queued behind other
  // generations' on a shared edge they can arrive at mixed hop counts.
  // Groups run in canonical (gen, steps) order, arrival order within one,
  // so the draws are the same at every thread count. Standing entries
  // (order 0) never share a group and an inbox arrival's order is its
  // index, so the key is unique: std::sort, which does not allocate, gives
  // the stable order.
  const auto key = [](const Arrival& a, const Arrival& b) {
    return a.gen != b.gen       ? a.gen < b.gen
           : a.steps != b.steps ? a.steps < b.steps
                                : a.order < b.order;
  };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), key)) {
    std::sort(arrivals.begin(), arrivals.end(), key);
  }
  for (auto begin = arrivals.begin(); begin != arrivals.end();) {
    const auto end = std::find_if(begin, arrivals.end(),
                                  [&](const Arrival& a) {
                                    return a.gen != begin->gen ||
                                           a.steps != begin->steps;
                                  });
    process(ctx, std::span<const Arrival>(begin, end));
    begin = end;
  }
}

// ------------------------------------------------------ sample convergecast

SampleConvergecast::SampleConvergecast(const congest::BfsTree& tree,
                                       const WalkStore& store, NodeId source,
                                       Sweep sweep)
    : tree_(&tree), store_(&store), source_(source), sweep_(sweep) {
  const std::size_t n = store.held.size();
  acc_.resize(n);
  via_.resize(n);
}

std::span<const NodeId> SampleConvergecast::start_nodes(
    std::span<const NodeId> all) {
  if (sweep_ == Sweep::kFirst) return all;
  // Round 0 acts only where an own candidate can exist and at the root,
  // which has to stay awake until round `height`.
  const std::span<const NodeId> holders = store_->holders_of(source_);
  start_.assign(holders.begin(), holders.end());
  const auto at = std::lower_bound(start_.begin(), start_.end(), tree_->root);
  if (at == start_.end() || *at != tree_->root) start_.insert(at, tree_->root);
  return start_;
}

void SampleConvergecast::absorb(congest::Context& ctx, NodeId from,
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
    via_[ctx.self()] = from;
  } else {
    acc.count = total;
  }
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
        own.seq = t.seq;
        own.held_index = idx;
      }
    }
    acc_[v] = own;
    via_[v] = v;
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kCandidate) continue;
    Candidate incoming;
    incoming.holder = static_cast<NodeId>(d.msg.f[0]);
    incoming.count = d.msg.f[1];
    incoming.length = static_cast<std::uint32_t>(d.msg.f[2]);
    incoming.seq = static_cast<std::uint32_t>(d.msg.f[3] >> 32);
    incoming.held_index = static_cast<std::uint32_t>(d.msg.f[3]);
    absorb(ctx, d.from, incoming);
  }
  const std::uint64_t due = tree_->subtree_height[v];
  if (ctx.round() > due) {
    throw std::logic_error("SampleConvergecast: report after its round");
  }
  if (v == tree_->root) {
    if (sweep_ == Sweep::kSilent && ctx.round() < due) ctx.wake_me();
    return;
  }
  const Candidate& c = acc_[v];
  if (sweep_ == Sweep::kSilent && c.count == 0) return;
  if (ctx.round() < due) {
    // A first sweep's last child report arrives in round `due`; a silent
    // sweep's holder has to stay awake until then.
    if (sweep_ == Sweep::kSilent) ctx.wake_me();
    return;
  }
  ctx.send_to(tree_->parent[v],
              congest::Message{
                  kCandidate,
                  {c.holder, c.count, c.length,
                   (static_cast<std::uint64_t>(c.seq) << 32) | c.held_index}});
}

// ------------------------------------------------------------ sample commit

SampleCommit::SampleCommit(NodeId root, std::vector<NodeId> via,
                           WalkStore& store,
                           const SampleConvergecast::Candidate& sampled)
    : root_(root), via_(std::move(via)), store_(&store),
      holder_(sampled.holder), held_index_(sampled.held_index) {}

void SampleCommit::forward(congest::Context& ctx, NodeId holder,
                           std::uint32_t held_index) {
  const NodeId v = ctx.self();
  if (via_[v] != v) {
    ctx.send_to(via_[v], congest::Message{kCommit, {holder, held_index, 0,
                                                    0}});
    return;
  }
  if (v != holder) {
    throw std::logic_error("SampleCommit: path ends away from the holder");
  }
  HeldToken& held = store_->held[v][held_index];
  if (held.used) throw std::logic_error("StitchEngine: token already used");
  held.used = true;
}

void SampleCommit::on_round(congest::Context& ctx) {
  if (ctx.round() == 0) {
    if (ctx.self() == root_) forward(ctx, holder_, held_index_);
    return;
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    if (d.msg.type != kCommit) continue;
    forward(ctx, static_cast<NodeId>(d.msg.f[0]),
            static_cast<std::uint32_t>(d.msg.f[1]));
  }
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
    start_.push_back(jobs_[j].start);
  }
  make_start_set(start_);
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

RegenerateProtocol::RegenerateProtocol(const Graph& g, std::vector<Job> jobs,
                                       TrajectoryStore& trajectories,
                                       PositionTable& positions,
                                       std::uint64_t salt)
    : jobs_by_node_(g.node_count()), trajectories_(&trajectories),
      positions_(&positions), salt_(salt) {
  for (const Job& job : jobs) {
    jobs_by_node_[job.holder].push_back(job);
    start_.push_back(job.holder);
  }
  make_start_set(start_);
}

void RegenerateProtocol::step(congest::Context& ctx, std::uint32_t walk_id,
                              std::uint32_t gen, std::uint64_t offset,
                              std::uint32_t hop, std::uint32_t prev_slot) {
  (*positions_)[ctx.self()].push_back(WalkPosition{walk_id, offset + hop});
  if (hop > 0) {
    ctx.send(prev_slot,
             congest::Message{kReplay, {walk_id, gen, offset, hop - 1u}});
  }
}

void RegenerateProtocol::on_round(congest::Context& ctx) {
  const NodeId v = ctx.self();
  if (ctx.round() == 0) {
    for (const Job& job : jobs_by_node_[v]) {
      step(ctx, job.walk_id, job.gen, job.offset, job.length,
           job.arrival_slot);
    }
    return;
  }
  for (const congest::Delivery& d : ctx.inbox()) {
    const auto walk_id = static_cast<std::uint32_t>(d.msg.f[0]);
    const auto gen = static_cast<std::uint32_t>(d.msg.f[1]);
    const auto hop = static_cast<std::uint32_t>(d.msg.f[3]);
    // Back at the short walk's source: the stitch recorded that position as
    // the previous segment's end (or the walk's start).
    if (d.msg.type != kReplay || hop == 0) continue;
    std::uint64_t draw = salt_ ^ walk_id;
    draw = splitmix64(draw) ^ d.msg.f[2];
    draw = splitmix64(draw) ^ hop;
    const std::uint32_t prev_slot = trajectories_->take_gmw(
        v, gen, hop, ctx.slot_of(d.from), splitmix64(draw));
    if (prev_slot == TrajectoryStore::kSpentSlot) {
      throw std::logic_error("RegenerateProtocol: no record matches edge");
    }
    step(ctx, walk_id, gen, d.msg.f[2], hop, prev_slot);
  }
}

// ------------------------------------------------------------------ finish

std::span<const NodeId> FinishProtocol::start_nodes(
    std::span<const NodeId> all) {
  const std::span<const NodeId> tails = tails_->start_nodes(all);
  const std::span<const NodeId> regen = regen_->start_nodes(all);
  start_.clear();
  std::set_union(tails.begin(), tails.end(), regen.begin(), regen.end(),
                 std::back_inserter(start_));
  return start_;
}

}  // namespace drw::core
