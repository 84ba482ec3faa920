// WalkService: a serving layer over the stitched random-walk engine.
//
// The paper's Phase 1 prepares short walks once; everything after that is
// consumption. Callers that drive StitchEngine by hand pay a full prepare()
// per batch and cannot mix lengths or sources. WalkService instead:
//
//   * accepts a stream of heterogeneous WalkRequests ({source, length,
//     count, record_positions}) via submit(), served batch-at-a-time by
//     flush();
//   * plans ONE batch-wide lambda (MANY-RANDOM-WALKS parameterization over
//     the batch's total walk count and maximum length) and keeps it across
//     batches while the plan stays within a slack factor -- so the
//     short-walk inventory persists instead of being discarded;
//   * tops the inventory up INCREMENTALLY: one targeted multi-source
//     GET-MORE-WALKS run per batch for its hot connectors (planned from
//     observed per-node demand vs supply by WalkInventory) plus the
//     engine's own in-walk GET-MORE-WALKS when SAMPLE-DESTINATION still
//     comes up empty. A full Phase 1 re-prepare
//     happens only when the planned lambda drifts out of the slack window
//     (or on first use);
//   * reports per-request WalkResults and per-batch/lifetime throughput
//     aggregates: rounds/request, messages/request, inventory hit rate,
//     replenishment and prepare counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/random_walks.hpp"
#include "service/batch_scheduler.hpp"
#include "service/walk_inventory.hpp"
#include "service/walk_request.hpp"

namespace drw::service {

/// Boundary-validation caps applied per request at flush() time. 0 means
/// unlimited. Violations come back as structured RequestResult statuses
/// (never engine throws); see RequestStatus in walk_request.hpp.
struct RequestCaps {
  /// Max walks a single request may ask for (WalkRequest::count).
  std::uint32_t max_count = 0;
  /// Max walk length a single request may ask for (WalkRequest::length).
  std::uint64_t max_length = 0;
  /// Max total walks one flush() serves; requests that would push the batch
  /// past it are rejected with kBatchCapExceeded (admission in submission
  /// order).
  std::uint64_t max_batch_walks = 0;
};

struct ServiceConfig {
  /// Walk parameterization (preset, transition model, eta, scaling...).
  /// record_trajectories is overridden by enable_paths below.
  core::Params params;
  /// Record trajectories so requests may set record_positions. Costs
  /// regeneration rounds per recorded walk and requires the simple walk.
  bool enable_paths = false;
  /// Replenishment sizing (see WalkInventory).
  InventoryPolicy policy;
  /// The inventory is reused while the batch-planned lambda stays within
  /// [lambda/slack, lambda*slack] of the engine's current lambda; outside
  /// that window the service re-prepares. Must be >= 1.
  double lambda_slack = 4.0;
  /// Concurrent cross-walk stitching: the number of walks the batch
  /// scheduler may keep open as ProtocolMux lanes (see batch_scheduler.hpp).
  /// Clamped to [1, Network::kMaxLanes]. 1 = one walk at a time, each
  /// traversal in its own Network run; widths of 2 or more multiplex
  /// non-conflicting traversals of that many walks into shared rounds.
  /// Unlike the network's thread count, this changes WHICH exact walks are
  /// sampled (all widths are exact l-step samples; width is part of the
  /// seed-reproducibility contract, like the seed itself).
  unsigned mux_width = 1;
  /// Per-request validation caps (see RequestCaps; all default unlimited).
  RequestCaps caps;
  /// Non-empty: after every batch whose engine is prepared and non-naive,
  /// atomically checkpoint the full serving state here (drw::resil
  /// snapshot). A later service on the same graph + seed can
  /// restore_snapshot() and continue bit-identically. Snapshot IO failures
  /// are logged and never take down serving.
  std::string snapshot_path;
  /// Snapshot generations to keep (>= 1; 0 is treated as 1). 1 (default)
  /// overwrites snapshot_path in place -- the historical layout. N > 1
  /// rotates `path.1` (newest) .. `path.N` (oldest) on every checkpoint
  /// and restore_snapshot picks the newest generation that validates, so
  /// a torn or corrupt latest checkpoint degrades to the previous one
  /// instead of a cold start.
  std::uint32_t snapshot_keep = 1;
  /// Informational: where the served graph came from (e.g. "csr:PATH",
  /// "text:PATH", "generator:torus:12x12"). Surfaced in `drw serve`'s
  /// --stats-json output; never affects execution.
  std::string graph_source;
};

/// The counters a batch adds to the service's lifetime totals: BatchReport
/// carries one batch's, ServiceStats their sum, and `drw serve
/// --stats-json` writes both with one writer.
struct BatchCounters {
  congest::RunStats stats;              ///< total cost
  std::uint64_t requests = 0;
  std::uint64_t walks = 0;
  std::uint64_t stitches = 0;
  std::uint64_t inventory_hits = 0;     ///< stitches served from stock
  std::uint64_t engine_gmw_calls = 0;   ///< in-walk emergency top-ups
  /// Stitches that built their connector's BFS tree / reused the engine's
  /// cached one (tree_builds + tree_reuses == stitches).
  std::uint64_t tree_builds = 0;
  std::uint64_t tree_reuses = 0;
  /// Targeted pre-batch top-ups (one per hot connector, all in one
  /// GET-MORE-WALKS run) and the short walks they added.
  std::uint64_t replenishments = 0;
  std::uint64_t replenished_walks = 0;
  /// Model cost of serving the same requests one naive token walk at a
  /// time (sum of length over all walks; a naive walk is exactly l rounds).
  std::uint64_t naive_rounds_estimate = 0;
  std::uint64_t mux_groups = 0;      ///< multiplexed traversal waves executed
  std::uint64_t mux_lanes = 0;       ///< lanes summed over waves (avg width
                                     ///< per wave = mux_lanes / mux_groups)
  std::uint64_t mux_conflicts = 0;   ///< traversals serialized by the conflict rule
  std::uint64_t rejected = 0;        ///< requests returned with status != kOk
  /// The short-walk store after the batch (StitchEngine::compact_store):
  /// tokens held, of them unused (equal once used ones are dropped), and
  /// routing records (Phase-1 and GET-MORE-WALKS generations alike) stored
  /// -- gauges: a sum keeps the latest value -- and freed by the batch's
  /// pass (summed).
  std::uint64_t held_tokens = 0;
  std::uint64_t unused_tokens = 0;
  std::uint64_t gmw_records = 0;
  std::uint64_t gmw_records_freed = 0;

  /// Adds `b`'s counters; the store gauges take `b`'s values.
  BatchCounters& operator+=(const BatchCounters& b) noexcept;
  /// Fraction of stitches served without an in-walk GET-MORE-WALKS stall.
  double inventory_hit_rate() const {
    return stitches == 0 ? 1.0
                         : static_cast<double>(inventory_hits) /
                               static_cast<double>(stitches);
  }
};

/// Per-batch serving report.
struct BatchReport : BatchCounters {
  std::vector<RequestResult> results;   ///< submission order
  std::uint32_t lambda = 0;             ///< lambda the batch ran with
  bool naive_mode = false;              ///< lambda > max length: token walks
  bool full_prepare = false;            ///< Phase 1 actually ran (a naive-
                                        ///< mode prepare creates nothing)
  std::uint32_t mux_width = 0;       ///< lanes the scheduler could open (1 = off)

  double rounds_per_request() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stats.rounds) /
                               static_cast<double>(requests);
  }
  double messages_per_request() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stats.messages) /
                               static_cast<double>(requests);
  }
};

/// Lifetime aggregates across all served batches.
struct ServiceStats : BatchCounters {
  std::uint64_t batches = 0;
  std::uint64_t full_prepares = 0;
};

class WalkService {
 public:
  WalkService(congest::Network& net, std::uint32_t diameter,
              ServiceConfig config = {});

  congest::Network& network() noexcept { return *net_; }
  std::uint32_t diameter() const noexcept { return diameter_; }
  const ServiceConfig& config() const noexcept { return config_; }
  /// The stitching width every batch runs at: config.mux_width clamped to
  /// [1, Network::kMaxLanes]. Resolved once at construction; the server's
  /// lane floor and trace metadata use it.
  unsigned mux_width() const noexcept { return mux_width_; }

  /// Enqueues one request for the next flush(). Never throws: validation
  /// happens at the service boundary in flush(), where invalid requests
  /// come back in their submission slot with a structured RequestStatus
  /// (kSourceOutOfRange, kPathsDisabled, cap violations) instead of a
  /// deep-engine throw -- the rest of the batch is served normally.
  void submit(const WalkRequest& request);
  std::size_t pending() const noexcept { return pending_.size(); }

  /// Serves every pending request as one batch. Empty-queue flushes are
  /// free no-ops. Edge semantics: count == 0 is an empty success;
  /// length == 0 returns `count` copies of `source` (path {source} when
  /// recorded) without touching the engine.
  BatchReport flush();

  /// submit() + flush() in one call.
  BatchReport serve(const std::vector<WalkRequest>& requests);

  const ServiceStats& lifetime() const noexcept { return lifetime_; }
  const WalkInventory& inventory() const noexcept { return inventory_; }
  /// Escape hatch for instrumentation and tests.
  core::StitchEngine& engine() noexcept { return engine_; }

  /// Atomically checkpoints the full serving state (engine inventory +
  /// trajectories + per-node RNG streams + demand bookkeeping + walk-id
  /// cursor, fingerprinted against this network's graph + seed) to `path`.
  /// Requires a prepared, non-naive engine (serve at least one batch
  /// first); throws std::logic_error otherwise and std::runtime_error on
  /// IO failure.
  void save_snapshot(const std::string& path);

  /// Restores a snapshot written by save_snapshot on an identical network
  /// (same graph, same seed). Returns true on a warm restart: every
  /// subsequent batch is bit-identical to the uninterrupted run. Returns
  /// false -- leaving the service untouched, ready for a cold start -- when
  /// no usable file exists: missing, torn, corrupt (checksum/version
  /// mismatch) or fingerprinted for a different network; reasons are
  /// logged to stderr. With config.snapshot_keep > 1 the generations
  /// `path.1` .. `path.N` are tried newest-first (then plain `path`, so a
  /// pre-rotation checkpoint still warm-starts), and the newest valid one
  /// wins.
  bool restore_snapshot(const std::string& path);

  /// Best-effort checkpoint to config.snapshot_path right now (same policy
  /// as the automatic after-batch snapshot: no-op without a path or a
  /// prepared non-naive engine, IO failures logged and swallowed). The
  /// server's SIGTERM path calls this so a clean shutdown persists state
  /// accumulated since the last batch boundary.
  void checkpoint() { maybe_snapshot(); }

 private:
  /// Snapshot-after-batch policy: config_.snapshot_path, IO failures logged
  /// and swallowed (a failing disk must not take down serving). With
  /// snapshot_keep > 1, rotates the generation files before writing.
  void maybe_snapshot();
  /// One restore attempt against a concrete file; on failure returns
  /// false with the reason in `why` and leaves the service untouched.
  bool restore_from_file(const std::string& file, std::string* why);
  /// graph_fingerprint(graph, seed), salted with enable_paths: a snapshot
  /// without trajectories must not warm-start a path-recording service.
  std::uint64_t state_fingerprint() const;

  congest::Network* net_;
  std::uint32_t diameter_;
  ServiceConfig config_;
  unsigned mux_width_;
  core::StitchEngine engine_;
  WalkInventory inventory_;
  std::vector<WalkRequest> pending_;
  std::uint32_t next_walk_id_ = 0;
  ServiceStats lifetime_;
};

}  // namespace drw::service
