#include "service/walk_inventory.hpp"

#include <algorithm>
#include <stdexcept>

namespace drw::service {

void WalkInventory::refresh(const core::StitchEngine& engine) {
  const std::vector<std::uint64_t> counts = engine.unused_counts_by_source();
  if (unused_.empty()) {
    unused_.assign(counts.size(), 0);
    demand_.assign(counts.size(), 0);
    last_visits_.assign(counts.size(), 0);
  }
  if (counts.size() != unused_.size()) {
    throw std::invalid_argument("WalkInventory::refresh: node count mismatch");
  }
  unused_ = counts;
  total_unused_ = 0;
  for (std::uint64_t c : unused_) total_unused_ += c;

  const std::vector<std::uint64_t>& visits = engine.connector_visits();
  total_demand_ = 0;
  for (NodeId v = 0; v < demand_.size(); ++v) {
    const std::uint64_t now = v < visits.size() ? visits[v] : 0;
    demand_[v] = now > last_visits_[v] ? now - last_visits_[v] : 0;
    total_demand_ += demand_[v];
    last_visits_[v] = now;
  }
}

void WalkInventory::reset(const core::StitchEngine& engine) {
  const std::size_t n = engine.store().held.size();
  unused_.assign(n, 0);
  demand_.assign(n, 0);
  last_visits_.assign(n, 0);
  total_unused_ = 0;
  total_demand_ = 0;
  refresh(engine);
}

void WalkInventory::restore(Image img) {
  if (img.unused.size() != unused_.size() ||
      img.demand.size() != unused_.size() ||
      img.last_visits.size() != unused_.size()) {
    throw std::invalid_argument("WalkInventory::restore: node count mismatch");
  }
  unused_ = std::move(img.unused);
  demand_ = std::move(img.demand);
  last_visits_ = std::move(img.last_visits);
  total_unused_ = img.total_unused;
  total_demand_ = img.total_demand;
}

std::vector<core::TopUp> WalkInventory::plan_replenishment(
    const InventoryPolicy& policy) const {
  std::vector<core::TopUp> plan;
  for (NodeId v = 0; v < demand_.size(); ++v) {
    if (demand_[v] == 0 || unused_[v] >= demand_[v]) continue;
    const auto target = static_cast<std::uint64_t>(
        policy.headroom * static_cast<double>(demand_[v]));
    if (target <= unused_[v]) continue;
    const std::uint64_t want = target - unused_[v];
    const auto count = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        want, policy.min_batch, policy.max_batch));
    plan.push_back(core::TopUp{v, count});
  }
  std::sort(plan.begin(), plan.end(),
            [](const core::TopUp& a, const core::TopUp& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.source < b.source;
            });
  return plan;
}

}  // namespace drw::service
