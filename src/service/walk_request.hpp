// Request/result vocabulary of the walk service layer.
//
// A WalkRequest is what a serving client submits: "give me `count`
// independent l-step random-walk samples from `source`" -- heterogeneous
// lengths, sources and counts mix freely within one batch. A RequestResult
// carries the per-request destinations (exact samples, Theorem 2.5 is Las
// Vegas), the per-request share of the round/message cost, and -- when asked
// -- the fully regenerated walk paths (Section 2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "core/random_walks.hpp"
#include "graph/graph.hpp"

namespace drw::service {

struct WalkRequest {
  NodeId source = 0;
  std::uint64_t length = 0;
  std::uint32_t count = 1;
  /// Regenerate and return the full node sequence of each walk (requires a
  /// service configured with enable_paths; costs regeneration rounds).
  bool record_positions = false;
};

/// Boundary-validation outcome of one request. Invalid requests never reach
/// the engine: they come back in their submission slot with a non-kOk
/// status and an explanatory message instead of a deep-engine throw, and
/// the rest of the batch is served normally (graceful degradation).
enum class RequestStatus : std::uint8_t {
  kOk = 0,
  kSourceOutOfRange,   ///< source >= node count
  kPathsDisabled,      ///< record_positions without ServiceConfig.enable_paths
  kCountExceedsCap,    ///< count > RequestCaps.max_count
  kLengthExceedsCap,   ///< length > RequestCaps.max_length
  kBatchCapExceeded,   ///< would push the batch past RequestCaps.max_batch_walks
  kQueueFull,          ///< admission queue at capacity (server front end)
  kDeadlineExceeded,   ///< deadline passed while queued for admission
};

constexpr const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kSourceOutOfRange: return "source out of range";
    case RequestStatus::kPathsDisabled:
      return "record_positions requires enable_paths";
    case RequestStatus::kCountExceedsCap: return "count exceeds cap";
    case RequestStatus::kLengthExceedsCap: return "length exceeds cap";
    case RequestStatus::kBatchCapExceeded: return "batch walk cap exceeded";
    case RequestStatus::kQueueFull: return "admission queue full";
    case RequestStatus::kDeadlineExceeded: return "deadline exceeded";
  }
  return "unknown";
}

struct RequestResult {
  WalkRequest request;
  /// One exact l-step destination per requested walk (size == count).
  /// Empty when status != kOk (a rejected request samples nothing).
  std::vector<NodeId> destinations;
  /// Full walk paths (size count, each length+1 nodes) when
  /// record_positions was set; empty otherwise.
  std::vector<std::vector<NodeId>> paths;
  /// Rounds/messages directly attributable to this request's walks
  /// (stitching + any in-walk GET-MORE-WALKS; the batch's shared
  /// concurrent tail and regeneration runs are reported at batch level
  /// only).
  congest::RunStats stats;
  /// Summed instrumentation over this request's walks.
  core::WalkCounters counters;
  /// Boundary validation outcome; destinations/paths/stats are only
  /// meaningful when ok().
  RequestStatus status = RequestStatus::kOk;

  bool ok() const noexcept { return status == RequestStatus::kOk; }
  const char* error() const noexcept { return to_string(status); }
};

}  // namespace drw::service
