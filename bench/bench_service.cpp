// Service experiment (acceptance gate for the walk service layer):
//
//   A serviced workload of >= 32 mixed-length requests must use strictly
//   fewer TOTAL rounds than the same requests issued as independent
//   single_random_walk() calls (each of which pays its own Phase 1), and
//   the run must exercise incremental inventory replenishment -- targeted
//   pre-batch GET-MORE-WALKS top-ups and/or in-walk GET-MORE-WALKS -- with
//   exactly one full Phase 1 across the whole workload.
//
// The workload: 36 requests, lengths mixed across 256..4096, sources spread
// over an expander, served in 3 batches so cross-batch inventory reuse and
// demand-driven top-ups are on the measured path.
// It doubles as the parallel-executor gate: the same serviced workload on an
// n = 10^4 expander is timed at 1/2/8 executor threads; endpoints must be
// bit-identical and, when the host has >= 8 hardware threads, 8 threads must
// be >= 2x faster than 1 (4..7-thread hosts enforce the calibrated 2-thread
// floor instead; 1-core hosts measure t1 only -- the widths would execute
// identically). Results land in BENCH_service.json, including the per-phase
// compute/transmit/merge breakdown of the widest point.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "service/walk_service.hpp"

namespace {

using namespace drw;

std::vector<service::WalkRequest> workload(const Graph& g, Rng& rng) {
  const std::uint64_t lengths[] = {256, 512, 1024, 2048, 4096};
  std::vector<service::WalkRequest> requests;
  for (int i = 0; i < 36; ++i) {
    // Skewed sources, like real serving traffic: half the requests hit one
    // hot key, whose Phase-1 stock (eta * deg walks) cannot cover them --
    // forcing the inventory to replenish incrementally.
    const NodeId source =
        i % 2 == 0 ? 0
                   : static_cast<NodeId>(rng.next_below(g.node_count()));
    requests.push_back(service::WalkRequest{
        source, lengths[static_cast<std::size_t>(i) % 5], 1, false});
  }
  return requests;
}

struct Comparison {
  std::uint64_t serviced_rounds = 0;
  std::uint64_t serviced_messages = 0;
  std::uint64_t independent_rounds = 0;
  std::uint64_t independent_messages = 0;
  std::uint64_t full_prepares = 0;
  std::uint64_t topups = 0;
  std::uint64_t engine_gmw = 0;
  double hit_rate = 0.0;
};

Comparison run_comparison(const Graph& g, std::uint32_t diameter,
                          std::uint64_t seed) {
  Rng workload_rng(4242);
  const std::vector<service::WalkRequest> requests = workload(g, workload_rng);
  Comparison cmp;

  // Serviced: one WalkService, three batches of 12.
  {
    congest::Network net(g, seed);
    service::WalkService svc(net, diameter, service::ServiceConfig{});
    for (std::size_t at = 0; at < requests.size(); at += 12) {
      for (std::size_t i = at; i < at + 12; ++i) svc.submit(requests[i]);
      const service::BatchReport report = svc.flush();
      cmp.topups += report.replenishments;
      cmp.engine_gmw += report.engine_gmw_calls;
    }
    cmp.serviced_rounds = svc.lifetime().stats.rounds;
    cmp.serviced_messages = svc.lifetime().stats.messages;
    cmp.full_prepares = svc.lifetime().full_prepares;
    cmp.hit_rate = svc.lifetime().inventory_hit_rate();
  }

  // Independent: every request pays its own engine + Phase 1.
  {
    congest::Network net(g, seed);
    for (const service::WalkRequest& r : requests) {
      const auto out = core::single_random_walk(
          net, r.source, r.length, core::Params::paper(), diameter);
      cmp.independent_rounds += out.result.stats.rounds;
      cmp.independent_messages += out.result.stats.messages;
    }
  }
  return cmp;
}

using bench::kSpeedupFloorT2;

/// Times one serviced workload at a fixed executor width; returns the
/// destinations too so the sweep can assert thread-count independence.
struct ParallelPoint {
  double wall_ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  congest::RunStats stats;  ///< lifetime totals (per-phase breakdown)
  std::vector<NodeId> destinations;
};

ParallelPoint run_parallel_point_once(
    const Graph& g, std::uint32_t diameter, unsigned threads,
    std::span<const service::WalkRequest> reqs) {
  congest::Network net(g, 9001);
  net.set_threads(threads);
  service::WalkService svc(net, diameter);
  ParallelPoint point;
  for (std::size_t at = 0; at < reqs.size(); at += 16) {
    for (std::size_t i = at; i < std::min(reqs.size(), at + 16); ++i) {
      svc.submit(reqs[i]);
    }
    const service::BatchReport report = svc.flush();
    for (const service::RequestResult& r : report.results) {
      point.destinations.insert(point.destinations.end(),
                                r.destinations.begin(),
                                r.destinations.end());
    }
  }
  point.stats = svc.lifetime().stats;
  point.wall_ms = point.stats.wall_ms;
  point.rounds = point.stats.rounds;
  point.messages = point.stats.messages;
  return point;
}

/// Best-of-2 wall time per width: one scheduling hiccup on a shared CI
/// runner must not trip the speedup gates. Both reps are seeded alike, so
/// they double as a same-width determinism check.
ParallelPoint run_parallel_point(const Graph& g, std::uint32_t diameter,
                                 unsigned threads,
                                 std::span<const service::WalkRequest> reqs) {
  ParallelPoint best = run_parallel_point_once(g, diameter, threads, reqs);
  const ParallelPoint rep = run_parallel_point_once(g, diameter, threads, reqs);
  if (rep.destinations != best.destinations) {
    std::fprintf(stderr, "parallel experiment: same-seed reps diverged\n");
    std::exit(1);
  }
  if (rep.wall_ms < best.wall_ms) {
    best.wall_ms = rep.wall_ms;
    best.stats = rep.stats;
  }
  return best;
}

int run_parallel_experiment(bench::JsonReport& json) {
  const std::size_t n = 10000;
  Rng rng(909);
  const Graph g = gen::random_regular(n, 6, rng);
  const std::uint32_t diameter =
      double_sweep_diameter_estimate(g, 0);

  Rng workload_rng(17);
  std::vector<service::WalkRequest> requests;
  const std::uint64_t lengths[] = {1024, 2048, 4096};
  for (int i = 0; i < 32; ++i) {
    const NodeId source =
        i % 2 == 0 ? 0
                   : static_cast<NodeId>(workload_rng.next_below(n));
    requests.push_back(service::WalkRequest{
        source, lengths[static_cast<std::size_t>(i) % 3], 1, false});
  }

  bench::banner(
      "PARALLEL / sharded round executor",
      "32 mixed-length requests (1024..4096) on expander(10000,6), the same "
      "seeded workload at 1/2/8 executor threads: results must be "
      "bit-identical, wall time should not be");

  const unsigned hw = std::thread::hardware_concurrency();
  // On a 1-core host every width executes the same single-stream schedule
  // (the pool only adds hand-offs), so re-measuring t2/t8 burns ~3x the
  // wall time for three copies of the same number; measure t1 once and let
  // the cross-width determinism guarantee rest on tests/test_determinism.
  const bool sweep_widths = hw > 1;
  const unsigned sweep[] = {1, 2, 8};
  bench::Table table({"threads", "wall ms", "rounds", "messages", "speedup"});
  ParallelPoint base;
  ParallelPoint widest;
  double speedup2 = 0.0;
  double speedup8 = 0.0;
  bool identical = true;
  // Arm the metrics registry for the sweep; resetting per width leaves it
  // holding the WIDEST point's distributions when the loop ends, which
  // add_registry_fields folds into the report below.
  obs::Registry::global().set_enabled(true);
  for (const unsigned threads : sweep) {
    if (threads != 1 && !sweep_widths) continue;
    obs::Registry::global().reset();
    const ParallelPoint point =
        run_parallel_point(g, diameter, threads, requests);
    widest = point;
    if (threads == 1) {
      base = point;
    } else {
      identical = identical && point.destinations == base.destinations &&
                  point.rounds == base.rounds &&
                  point.messages == base.messages;
    }
    const double speedup = base.wall_ms / point.wall_ms;
    if (threads == 2) speedup2 = speedup;
    if (threads == 8) speedup8 = speedup;
    table.add_row({bench::fmt_u64(threads), bench::fmt_double(point.wall_ms, 1),
                   bench::fmt_u64(point.rounds), bench::fmt_u64(point.messages),
                   bench::fmt_double(speedup, 2)});
    json.add("wall_ms_t" + std::to_string(threads), point.wall_ms);
  }
  table.print();

  json.add_string("workload", "expander(10000,6) x 32 requests 1024..4096");
  json.add("n", static_cast<std::uint64_t>(n));
  json.add("seed", static_cast<std::uint64_t>(9001));
  json.add("rounds", base.rounds);
  json.add("messages", base.messages);
  json.add("hw_threads", static_cast<std::uint64_t>(hw));
  json.add("sweep_skipped_hw1", sweep_widths ? 0 : 1);
  json.add("speedup_t2", speedup2);
  json.add("speedup_t8", speedup8);
  json.add("speedup_floor_t2", kSpeedupFloorT2);
  json.add("deterministic", identical ? 1 : 0);
  // Per-phase breakdown of the widest measured point -- how to read these
  // fields is documented in README "Performance tuning".
  bench::add_phase_fields(json, "t_widest_", widest.stats);
  // Registry distributions of the same point (both best-of-2 reps
  // accumulate, so counters are ~2x the RunStats totals; the percentile
  // fields are the interesting trajectory signal).
  bench::add_registry_fields(json, "obs_widest_");
  obs::Registry::global().set_enabled(false);
  obs::Registry::global().reset();

  // The >=2x gate only binds where 8 workers have real cores to run on;
  // on 4..7-thread hosts (the common CI runner shape) the calibrated
  // 2-thread floor is ENFORCED, replacing the old WARN-only canary;
  // smaller hosts still emit the trajectory point.
  const bool enforce8 = hw >= 8;
  const bool enforce2 = !enforce8 && hw >= 4;
  const bool pass8 = !enforce8 || speedup8 >= 2.0;
  const bool pass2 = !enforce2 || speedup2 >= kSpeedupFloorT2;
  std::printf("acceptance: bit-identical across thread counts: %s; "
              "8-thread speedup %.2fx (>=2x gate %s); "
              "2-thread speedup %.2fx (>=%.2fx floor %s)\n",
              identical ? "PASS" : "FAIL", speedup8,
              !enforce8 ? "SKIP, <8 hw threads" : (pass8 ? "PASS" : "FAIL"),
              speedup2, kSpeedupFloorT2,
              !enforce2 ? (enforce8 ? "SKIP, 8t gate binds"
                                    : "SKIP, <4 hw threads")
                        : (pass2 ? "PASS" : "FAIL"));
  return identical && pass8 && pass2 ? 0 : 1;
}

int run_experiment() {
  Rng rng(808);
  const Graph g = gen::random_regular(128, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);

  bench::banner(
      "SERVICE / batched serving vs per-request SINGLE-RANDOM-WALK",
      "36 mixed-length requests (256..4096) on expander(128,4), serviced "
      "in 3 batches from one persistent inventory vs 36 independent "
      "single_random_walk calls (one Phase 1 EACH)");

  bench::Table table({"seed", "serviced rounds", "independent rounds",
                      "speedup", "phase1 runs", "topups", "in-walk gmw",
                      "hit rate"});
  bool rounds_ok = true;
  bool replenish_ok = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Comparison cmp = run_comparison(g, diameter, seed);
    rounds_ok = rounds_ok && cmp.serviced_rounds < cmp.independent_rounds;
    replenish_ok = replenish_ok && (cmp.topups + cmp.engine_gmw) > 0 &&
                   cmp.full_prepares == 1;
    table.add_row(
        {bench::fmt_u64(seed), bench::fmt_u64(cmp.serviced_rounds),
         bench::fmt_u64(cmp.independent_rounds),
         bench::fmt_double(static_cast<double>(cmp.independent_rounds) /
                               static_cast<double>(cmp.serviced_rounds),
                           2),
         bench::fmt_u64(cmp.full_prepares), bench::fmt_u64(cmp.topups),
         bench::fmt_u64(cmp.engine_gmw), bench::fmt_double(cmp.hit_rate, 3)});
  }
  table.print();
  std::printf("acceptance: serviced < independent on every seed: %s; "
              "replenishment exercised with a single Phase 1: %s\n",
              rounds_ok ? "PASS" : "FAIL",
              replenish_ok ? "PASS" : "FAIL");
  return rounds_ok && replenish_ok ? 0 : 1;
}

void BM_ServicedBatch(benchmark::State& state) {
  Rng rng(808);
  const Graph g = gen::random_regular(64, 4, rng);
  const auto diameter = exact_diameter(g);
  Rng workload_rng(11);
  const auto requests = workload(g, workload_rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    congest::Network net(g, seed++);
    service::WalkService svc(net, diameter, service::ServiceConfig{});
    const auto report = svc.serve(requests);
    benchmark::DoNotOptimize(report.results.data());
    state.counters["rounds"] = static_cast<double>(report.stats.rounds);
  }
}
BENCHMARK(BM_ServicedBatch);

void BM_IndependentWalks(benchmark::State& state) {
  Rng rng(808);
  const Graph g = gen::random_regular(64, 4, rng);
  const auto diameter = exact_diameter(g);
  Rng workload_rng(11);
  const auto requests = workload(g, workload_rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    congest::Network net(g, seed++);
    std::uint64_t rounds = 0;
    for (const auto& r : requests) {
      rounds += core::single_random_walk(net, r.source, r.length,
                                         core::Params::paper(), diameter)
                    .result.stats.rounds;
    }
    state.counters["rounds"] = static_cast<double>(rounds);
  }
}
BENCHMARK(BM_IndependentWalks);

}  // namespace

int main(int argc, char** argv) {
  const int rc = run_experiment();
  if (rc != 0) return rc;
  bench::JsonReport json("service");
  const int parallel_rc = run_parallel_experiment(json);
  json.write();
  if (parallel_rc != 0) return parallel_rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
