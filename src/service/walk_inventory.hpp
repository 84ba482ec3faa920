// Persistent short-walk inventory bookkeeping for the walk service.
//
// Phase 1 of SINGLE-RANDOM-WALK prepares a pool of short walks once; the
// paper's amortization argument (and its follow-up, Das Sarma-Molla-
// Pandurangan 2012, on continuous sampling) treats that pool as a reusable
// resource. WalkInventory tracks the pool's per-source supply across serving
// batches, observes per-connector demand (stitch consumption) between
// refreshes, and plans *targeted* GET-MORE-WALKS replenishment for hot
// connectors -- so the service tops the pool up incrementally instead of
// discarding it and re-running Phase 1 per batch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/random_walks.hpp"
#include "graph/graph.hpp"

namespace drw::service {

/// Replenishment sizing policy (all knobs node-count independent).
struct InventoryPolicy {
  /// Target stock per hot connector = headroom * demand observed over the
  /// last batch; nodes whose unused supply is below the observed demand
  /// (the low-water mark) are topped up to the target.
  double headroom = 2.0;
  /// Smallest top-up a hot connector gets. All of a batch's top-ups share
  /// one GET-MORE-WALKS run, whose O(lambda) rounds are paid once per batch
  /// whatever the counts (Lemma 2.2), so a higher floor costs messages,
  /// not rounds.
  std::uint32_t min_batch = 4;
  /// Hard cap per top-up (message-size / memory guard).
  std::uint32_t max_batch = 1u << 16;
};


class WalkInventory {
 public:
  WalkInventory() = default;
  explicit WalkInventory(std::size_t node_count)
      : unused_(node_count, 0), demand_(node_count, 0),
        last_visits_(node_count, 0) {}

  std::size_t node_count() const noexcept { return unused_.size(); }

  /// Unused short walks whose source is `v` (as of the last refresh).
  std::uint64_t unused(NodeId v) const { return unused_[v]; }
  std::uint64_t total_unused() const noexcept { return total_unused_; }

  /// Stitches that consumed a short walk from `v` during the last
  /// observed batch (connector-visit delta at the last refresh).
  std::uint64_t demand(NodeId v) const { return demand_[v]; }
  std::uint64_t total_demand() const noexcept { return total_demand_; }

  /// Rescans the engine's store and diffs its connector visits against the
  /// previous refresh. Call once per served batch.
  void refresh(const core::StitchEngine& engine);

  /// Forgets demand history (e.g. after a full re-prepare, which resets the
  /// engine's connector counters and discards the old pool).
  void reset(const core::StitchEngine& engine);

  /// Plans targeted top-ups from the latest supply/demand snapshot: every
  /// node whose observed demand exceeded its remaining supply is brought up
  /// to `headroom * demand`. Returns the plan most-starved first.
  std::vector<core::TopUp> plan_replenishment(
      const InventoryPolicy& policy) const;

  /// Raw copy of the bookkeeping arrays for checkpointing (drw::resil).
  /// Demand history is part of the sampling stream -- it decides which
  /// replenishment runs consume coins next batch -- so a warm restart must
  /// restore it exactly, not recompute it.
  struct Image {
    std::vector<std::uint64_t> unused;
    std::vector<std::uint64_t> demand;
    std::vector<std::uint64_t> last_visits;
    std::uint64_t total_unused = 0;
    std::uint64_t total_demand = 0;
  };
  Image image() const {
    return Image{unused_, demand_, last_visits_, total_unused_,
                 total_demand_};
  }
  /// Restores a captured image. Throws std::invalid_argument if the image's
  /// node count does not match this inventory's.
  void restore(Image img);

 private:
  std::vector<std::uint64_t> unused_;
  std::vector<std::uint64_t> demand_;
  std::vector<std::uint64_t> last_visits_;
  std::uint64_t total_unused_ = 0;
  std::uint64_t total_demand_ = 0;
};

}  // namespace drw::service
