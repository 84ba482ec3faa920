#include "service/walk_service.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resil/failpoint.hpp"
#include "resil/snapshot.hpp"

namespace drw::service {

namespace {

core::Params engine_params(const ServiceConfig& config) {
  core::Params params = config.params;
  params.record_trajectories = config.enable_paths;
  return params;
}

}  // namespace

WalkService::WalkService(congest::Network& net, std::uint32_t diameter,
                         ServiceConfig config)
    : net_(&net), diameter_(diameter), config_(config),
      mux_width_(std::clamp(config.mux_width, 1u,
                            congest::Network::kMaxLanes)),
      engine_(net, engine_params(config), diameter),
      inventory_(net.graph().node_count()) {
  if (config_.lambda_slack < 1.0) {
    throw std::invalid_argument("WalkService: lambda_slack < 1");
  }
}

void WalkService::submit(const WalkRequest& request) {
  // Validation is deferred to flush(), where violations come back as
  // structured per-request statuses instead of throws: one bad request
  // must never take down a batch (or the process).
  pending_.push_back(request);
}

BatchReport WalkService::serve(const std::vector<WalkRequest>& requests) {
  for (const WalkRequest& r : requests) submit(r);
  return flush();
}

BatchReport WalkService::flush() {
  BatchReport report;
  if (pending_.empty()) return report;
  resil::failpoint("service.batch");
  obs::Span batch_span(obs::Name::kServiceBatch, obs::kPidService, 0,
                       lifetime_.batches);
  std::vector<WalkRequest> batch = std::move(pending_);
  pending_.clear();
  report.requests = batch.size();

  const Graph& g = net_->graph();

  // Boundary validation (graceful degradation): every request gets a
  // structured status; invalid ones never reach the engine and the rest of
  // the batch is served normally. The batch-walk cap admits in submission
  // order.
  std::vector<RequestStatus> status(batch.size(), RequestStatus::kOk);
  std::uint64_t admitted_walks = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const WalkRequest& r = batch[i];
    if (r.source >= g.node_count()) {
      status[i] = RequestStatus::kSourceOutOfRange;
    } else if (r.record_positions && !config_.enable_paths) {
      status[i] = RequestStatus::kPathsDisabled;
    } else if (config_.caps.max_count != 0 &&
               r.count > config_.caps.max_count) {
      status[i] = RequestStatus::kCountExceedsCap;
    } else if (config_.caps.max_length != 0 &&
               r.length > config_.caps.max_length) {
      status[i] = RequestStatus::kLengthExceedsCap;
    } else if (config_.caps.max_batch_walks != 0 &&
               admitted_walks + r.count > config_.caps.max_batch_walks) {
      status[i] = RequestStatus::kBatchCapExceeded;
    } else {
      admitted_walks += r.count;
    }
    if (status[i] != RequestStatus::kOk) ++report.rejected;
  }

  // Results skeleton: rejected slots carry their status, count == 0 is an
  // empty success, and length == 0 is `count` copies of the source served
  // inline -- a walk of zero steps never needs the engine.
  report.results.resize(batch.size());
  std::vector<WalkRequest> engine_batch;
  std::vector<std::size_t> engine_slot;  // engine_batch index -> batch slot
  std::uint64_t units = 0;
  std::uint64_t l_max = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const WalkRequest& r = batch[i];
    RequestResult& out = report.results[i];
    out.request = r;
    out.status = status[i];
    if (status[i] != RequestStatus::kOk || r.count == 0) continue;
    if (r.length == 0) {
      out.destinations.assign(r.count, r.source);
      if (r.record_positions) {
        out.paths.assign(r.count, std::vector<NodeId>{r.source});
      }
      report.walks += r.count;
      continue;
    }
    engine_batch.push_back(r);
    engine_slot.push_back(i);
    units += r.count;
    l_max = std::max(l_max, r.length);
    report.naive_rounds_estimate +=
        static_cast<std::uint64_t>(r.count) * r.length;
  }
  if (units == 0) {
    // Nothing engine-bound: no protocol runs, no snapshot state change.
    ++lifetime_.batches;
    lifetime_.requests += report.requests;
    lifetime_.walks += report.walks;
    lifetime_.rejected += report.rejected;
    return report;
  }

  // Plan the batch-wide lambda (MANY-RANDOM-WALKS parameterization over the
  // whole batch) and decide between inventory reuse and a full Phase 1.
  const core::Params params = engine_params(config_);
  const std::uint32_t lambda_plan =
      units <= 1 ? params.lambda_single(l_max, diameter_, g.node_count())
                 : params.lambda_many(units, l_max, diameter_, g.node_count());
  bool reuse = engine_.prepared() && !engine_.naive_mode();
  if (reuse) {
    const double current = engine_.lambda();
    const double planned = lambda_plan;
    reuse = planned <= current * config_.lambda_slack &&
            current <= planned * config_.lambda_slack;
  }

  if (reuse) {
    engine_.adopt_plan(units, l_max);
    // Targeted replenishment: top up connectors whose last-batch demand
    // outran their remaining stock, one O(lambda) GET-MORE-WALKS run each.
    for (const Replenishment& r :
         inventory_.plan_replenishment(config_.policy)) {
      report.stats += engine_.replenish(r.source, r.count);
      ++report.replenishments;
      report.replenished_walks += r.count;
    }
  } else {
    engine_.prepare(units, l_max);
    // A naive-mode prepare creates no short walks (the fallback of
    // Section 2.3): no Phase 1 actually ran, so it is not counted.
    report.full_prepare = !engine_.naive_mode();
    inventory_.reset(engine_);
  }
  report.lambda = engine_.lambda();
  report.naive_mode = engine_.naive_mode();

  MuxOptions mux;
  mux.width = mux_width_;
  report.mux_width = mux.width;

  BatchScheduler scheduler(engine_);
  BatchScheduler::Outcome outcome =
      scheduler.run(engine_batch, next_walk_id_, mux);
  next_walk_id_ += static_cast<std::uint32_t>(units);

  // Merge engine results back into their submission slots (rejected and
  // inline-served slots already hold their results).
  for (std::size_t j = 0; j < engine_slot.size(); ++j) {
    RequestResult& out = report.results[engine_slot[j]];
    RequestResult& served = outcome.results[j];
    out.destinations = std::move(served.destinations);
    out.paths = std::move(served.paths);
    out.stats = served.stats;
    out.counters = served.counters;
  }
  report.stats += outcome.stats;
  report.walks += outcome.walks;
  report.mux_groups = outcome.mux_groups;
  report.mux_lanes = outcome.mux_lanes;
  report.mux_conflicts = outcome.mux_conflicts;
  report.stitches = outcome.counters.stitches;
  report.engine_gmw_calls = outcome.counters.get_more_walks_calls;
  report.tree_builds = outcome.counters.tree_builds;
  report.tree_reuses = outcome.counters.tree_reuses;
  report.inventory_hits =
      report.stitches > report.engine_gmw_calls
          ? report.stitches - report.engine_gmw_calls
          : 0;
  // Keep the position table bounded even when no request recorded paths.
  if (config_.enable_paths) engine_.drain_positions();
  if (!report.naive_mode) inventory_.refresh(engine_);

  ++lifetime_.batches;
  lifetime_.requests += report.requests;
  lifetime_.walks += report.walks;
  lifetime_.rejected += report.rejected;
  lifetime_.stats += report.stats;
  if (report.full_prepare) ++lifetime_.full_prepares;
  lifetime_.replenishments += report.replenishments;
  lifetime_.replenished_walks += report.replenished_walks;
  lifetime_.stitches += report.stitches;
  lifetime_.inventory_hits += report.inventory_hits;
  lifetime_.engine_gmw_calls += report.engine_gmw_calls;
  lifetime_.tree_builds += report.tree_builds;
  lifetime_.tree_reuses += report.tree_reuses;
  lifetime_.naive_rounds_estimate += report.naive_rounds_estimate;
  lifetime_.mux_groups += report.mux_groups;
  lifetime_.mux_lanes += report.mux_lanes;
  lifetime_.mux_conflicts += report.mux_conflicts;

  if (obs::Registry::global().enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("service.batches").add(1);
    reg.counter("service.requests").add(report.requests);
    reg.counter("service.walks").add(report.walks);
    reg.counter("service.stitches").add(report.stitches);
    reg.counter("service.inventory_hits").add(report.inventory_hits);
    reg.counter("service.inventory_misses").add(report.engine_gmw_calls);
    reg.counter("service.tree_builds").add(report.tree_builds);
    reg.counter("service.tree_reuses").add(report.tree_reuses);
    reg.counter("service.replenishments").add(report.replenishments);
    reg.counter("service.replenished_walks").add(report.replenished_walks);
    if (report.full_prepare) reg.counter("service.full_prepares").add(1);
    reg.counter("mux.waves").add(report.mux_groups);
    reg.counter("mux.lanes").add(report.mux_lanes);
    reg.counter("mux.conflicts").add(report.mux_conflicts);
    reg.histogram("service.batch_walks").record(report.walks);
  }
  maybe_snapshot();
  return report;
}

std::uint64_t WalkService::state_fingerprint() const {
  std::uint64_t fp = resil::graph_fingerprint(net_->graph(), net_->seed());
  if (config_.enable_paths) fp ^= 0xD1B54A32D192ED03ULL;
  return fp;
}

void WalkService::maybe_snapshot() {
  if (config_.snapshot_path.empty()) return;
  if (!engine_.prepared() || engine_.naive_mode()) return;
  try {
    if (config_.snapshot_keep > 1) {
      // Rotate first, then write .1 atomically: if the write fails the
      // shifted generations (.2 and up) still hold complete checkpoints
      // for restore's newest-valid scan.
      resil::rotate_snapshot_files(config_.snapshot_path,
                                   config_.snapshot_keep);
      save_snapshot(
          resil::snapshot_generation_path(config_.snapshot_path, 1));
    } else {
      save_snapshot(config_.snapshot_path);
    }
  } catch (const std::exception& e) {
    // Degradation, not death: serving results are already computed; the
    // worst case is restarting from an older (still atomic) snapshot.
    std::fprintf(stderr, "resil: snapshot failed (serving continues): %s\n",
                 e.what());
  }
}

void WalkService::save_snapshot(const std::string& path) {
  if (!engine_.prepared() || engine_.naive_mode()) {
    throw std::logic_error(
        "WalkService::save_snapshot: requires a prepared, non-naive engine "
        "(serve at least one non-naive batch first)");
  }
  const Graph& g = net_->graph();
  const std::size_t n = g.node_count();
  resil::ServiceSnapshot snap;
  snap.graph_fingerprint = state_fingerprint();
  snap.next_walk_id = next_walk_id_;
  snap.engine.store = engine_.store();
  snap.engine.trajectories = engine_.trajectories();
  snap.engine.lambda = engine_.lambda();
  snap.engine.prepared_l = engine_.prepared_l();
  snap.engine.prepared_k = engine_.prepared_k();
  snap.connector_visits = engine_.connector_visits();
  snap.tree_roots = engine_.tree_cache().roots();
  WalkInventory::Image inv = inventory_.image();
  snap.inventory.unused = std::move(inv.unused);
  snap.inventory.demand = std::move(inv.demand);
  snap.inventory.last_visits = std::move(inv.last_visits);
  snap.inventory.total_unused = inv.total_unused;
  snap.inventory.total_demand = inv.total_demand;
  snap.rng_states.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    snap.rng_states.push_back(net_->node_rng(v).state());
  }
  resil::write_snapshot_file(path, snap);
}

bool WalkService::restore_snapshot(const std::string& path) {
  // Newest generation first; the plain path rides last so a checkpoint
  // written before rotation was enabled (or with keep == 1) still
  // warm-starts a rotated configuration.
  std::vector<std::string> candidates;
  if (config_.snapshot_keep > 1) {
    for (std::uint32_t slot = 1; slot <= config_.snapshot_keep; ++slot) {
      candidates.push_back(resil::snapshot_generation_path(path, slot));
    }
  }
  candidates.push_back(path);
  for (const std::string& file : candidates) {
    std::string why;
    if (restore_from_file(file, &why)) return true;
    std::fprintf(stderr, "resil: snapshot %s unusable: %s\n", file.c_str(),
                 why.c_str());
  }
  std::fprintf(stderr, "resil: cold start (no usable snapshot for %s)\n",
               path.c_str());
  return false;
}

bool WalkService::restore_from_file(const std::string& path,
                                    std::string* why) {
  const auto cold = [why](const std::string& reason) {
    *why = reason;
    return false;
  };
  resil::ReadOutcome outcome = resil::read_snapshot_file(path);
  if (!outcome.snapshot.has_value()) return cold(outcome.error);
  resil::ServiceSnapshot& snap = *outcome.snapshot;

  const std::size_t n = net_->graph().node_count();
  if (snap.graph_fingerprint != state_fingerprint()) {
    return cold("graph/seed/config fingerprint mismatch");
  }
  if (snap.engine.store.held.size() != n ||
      snap.engine.trajectories.forward.size() != n ||
      snap.engine.trajectories.fragments.size() != n ||
      snap.connector_visits.size() != n || snap.rng_states.size() != n ||
      snap.inventory.unused.size() != n ||
      snap.inventory.demand.size() != n ||
      snap.inventory.last_visits.size() != n) {
    return cold("node count mismatch");
  }
  if (snap.engine.lambda == 0) return cold("lambda == 0");

  const std::uint64_t total_unused = snap.inventory.total_unused;
  engine_.adopt_state(std::move(snap.engine));
  engine_.restore_connector_visits(std::move(snap.connector_visits));
  engine_.restore_tree_cache(snap.tree_roots);
  inventory_.restore(WalkInventory::Image{
      std::move(snap.inventory.unused), std::move(snap.inventory.demand),
      std::move(snap.inventory.last_visits), snap.inventory.total_unused,
      snap.inventory.total_demand});
  for (NodeId v = 0; v < n; ++v) {
    net_->node_rng(v).set_state(snap.rng_states[v]);
  }
  next_walk_id_ = snap.next_walk_id;
  std::fprintf(stderr,
               "resil: warm restart from %s (%zu nodes, lambda=%u, "
               "%llu unused short walks, %zu cached BFS trees, next walk id "
               "%u)\n",
               path.c_str(), n, engine_.lambda(),
               static_cast<unsigned long long>(total_unused),
               engine_.tree_cache().size(), next_walk_id_);
  return true;
}

}  // namespace drw::service
