#include "congest/mux.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace drw::congest {

namespace {
/// Salt separating lane-master derivation from the network's own per-node
/// split_key(v) family.
constexpr std::uint64_t kLaneSalt = 0x6d75786c616e6531ULL;  // "muxlane1"
}  // namespace

ProtocolMux::ProtocolMux(std::size_t node_count)
    : node_count_(node_count) {}

unsigned ProtocolMux::add_lane(Protocol& protocol, NodeStreams* lane_rngs) {
  if (lanes_.size() >= Network::kMaxLanes) {
    throw std::invalid_argument("ProtocolMux: too many lanes");
  }
  if (lane_rngs != nullptr && lane_rngs->size() != node_count_) {
    throw std::invalid_argument("ProtocolMux: lane rng size mismatch");
  }
  lanes_.push_back(Lane{&protocol, lane_rngs});
  return static_cast<unsigned>(lanes_.size() - 1);
}

NodeStreams ProtocolMux::derive_lane_rngs(std::uint64_t seed,
                                          std::uint64_t key,
                                          std::size_t node_count) {
  return NodeStreams(Rng(seed ^ kLaneSalt).split_key(key), node_count);
}

void ProtocolMux::on_run_start(unsigned workers) {
  const auto lanes = static_cast<unsigned>(lanes_.size());
  if (lanes == 0) throw std::logic_error("ProtocolMux: no lanes");
  wake_.assign(static_cast<std::size_t>(lanes) * node_count_, 0);
  frozen_.assign(lanes, 0);
  stats_.assign(lanes, LaneStats{});
  last_counted_.assign(lanes, -1);
  iteration_ = 0;
  slots_.resize(workers);
  for (WorkerSlot& slot : slots_) {
    slot.sub_inbox.resize(lanes);
    for (auto& inbox : slot.sub_inbox) inbox.clear();
    slot.delivered_flag.assign(lanes, 0);
    slot.woke_flag.assign(lanes, 0);
    slot.deliveries.assign(lanes, 0);
  }
  for (const Lane& lane : lanes_) lane.protocol->on_run_start(workers);
}

std::span<const NodeId> ProtocolMux::start_nodes(
    std::span<const NodeId> all) {
  start_.clear();
  for (const Lane& lane : lanes_) {
    const std::span<const NodeId> set = lane.protocol->start_nodes(all);
    if (set.size() == all.size()) return all;
    start_.insert(start_.end(), set.begin(), set.end());
  }
  std::sort(start_.begin(), start_.end());
  start_.erase(std::unique(start_.begin(), start_.end()), start_.end());
  return start_;
}

void ProtocolMux::dispatch_lane(Context& ctx, WorkerSlot& slot, unsigned l,
                                NodeId v, std::span<const Delivery> sub) {
  // A lane runs when it has deliveries, asked to be woken, or at every
  // node of round 0's start set (the union of the lanes' sets; a node
  // outside the lane's own set does nothing then) -- the solo activation
  // rule, per lane.
  std::uint8_t& wake = wake_[static_cast<std::size_t>(l) * node_count_ + v];
  const bool has_wake = wake != 0;
  if (ctx.round() != 0 && sub.empty() && !has_wake) return;
  wake = 0;
  ctx.lane_ = static_cast<std::uint16_t>(l);
  NodeStreams* const shared = ctx.streams_;
  if (lanes_[l].rngs != nullptr) ctx.streams_ = lanes_[l].rngs;
  ctx.lane_woke_ = false;
  ctx.inbox_ = sub;
  lanes_[l].protocol->on_round(ctx);
  ctx.streams_ = shared;
  if (ctx.lane_woke_) {
    wake = 1;
    slot.woke_flag[l] = 1;
  }
  if (!sub.empty()) {
    slot.delivered_flag[l] = 1;
    slot.deliveries[l] += sub.size();
  }
}

void ProtocolMux::on_round(Context& ctx) {
  const NodeId v = ctx.self();
  WorkerSlot& slot = slots_[ctx.worker_];
  const auto lanes = static_cast<unsigned>(lanes_.size());
  const std::span<const Delivery> inbox = ctx.inbox();

  // Fast path: all of this node's deliveries belong to ONE lane (the
  // common case outside overlapping flood fronts) -- that lane dispatches
  // on the original span, no copy. Mixed inboxes are partitioned by lane
  // into per-worker scratch. Frozen lanes are skipped either way (the
  // network clears the inbox after this on_round), mirroring how a solo
  // run discards a done() protocol's untransmitted backlog.
  std::uint16_t only = 0;
  bool mixed = false;
  if (!inbox.empty()) {
    only = inbox[0].msg.lane;
    for (const Delivery& d : inbox.subspan(1)) {
      if (d.msg.lane != only) {
        mixed = true;
        break;
      }
    }
  }
  if (mixed) {
    for (unsigned l = 0; l < lanes; ++l) slot.sub_inbox[l].clear();
    for (const Delivery& d : inbox) {
      if (!frozen_[d.msg.lane]) slot.sub_inbox[d.msg.lane].push_back(d);
    }
  }

  // Dispatch lanes in ascending id order.
  for (unsigned l = 0; l < lanes; ++l) {
    if (frozen_[l]) continue;
    std::span<const Delivery> sub;
    if (mixed) {
      sub = std::span<const Delivery>(slot.sub_inbox[l]);
    } else if (!inbox.empty() && l == only) {
      sub = inbox;
    }
    dispatch_lane(ctx, slot, l, v, sub);
  }
  ctx.lane_ = 0;
  ctx.inbox_ = inbox;
}

void ProtocolMux::count_round(unsigned lane, std::uint64_t round) const {
  if (static_cast<std::int64_t>(round) > last_counted_[lane]) {
    ++stats_[lane].rounds;
    last_counted_[lane] = static_cast<std::int64_t>(round);
    // Lane attribution for the trace: one instant per (lane, counted
    // round) on the lane's own track. Emitted from the driver (done()
    // runs after the compute barrier), so rings see no cross-thread
    // interleaving here.
    obs::event(obs::Name::kLaneRound, 'i', obs::kPidMux,
               static_cast<std::uint16_t>(lane), round);
  }
}

bool ProtocolMux::done() const {
  // Called once per round on the driver thread, after the compute barrier:
  // fold the workers' per-round activity flags into per-lane round counts.
  // A delivery observed at iteration t proves the lane transmitted at
  // t - 1; a wake staged at t makes t a (possibly message-free) round --
  // the same accounting rule Network applies globally.
  const std::uint64_t t = iteration_++;
  bool all_done = true;
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    bool delivered = false;
    bool woke = false;
    for (WorkerSlot& slot : slots_) {
      delivered = delivered || slot.delivered_flag[l] != 0;
      woke = woke || slot.woke_flag[l] != 0;
      slot.delivered_flag[l] = 0;
      slot.woke_flag[l] = 0;
    }
    if (delivered && t >= 1) count_round(l, t - 1);
    if (woke) count_round(l, t);
    if (frozen_[l] == 0 && lanes_[l].protocol->done()) frozen_[l] = 1;
    all_done = all_done && frozen_[l] != 0;
  }
  // Refold delivery counts every round (idempotent full recompute; the run
  // can end on quiescence right after any round, and there is no after-run
  // hook).
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    std::uint64_t sum = 0;
    for (const WorkerSlot& slot : slots_) sum += slot.deliveries[l];
    stats_[l].messages = sum;
  }
  return all_done;
}

}  // namespace drw::congest
