// Skew experiment (acceptance gate for the load-balanced round executor):
//
//   On degree-skewed graph families -- star, lollipop, power-law -- an
//   equal-node-count shard split would pile most edge traffic onto one
//   worker while the rest idle. The edge-weighted partition must keep the
//   parallelism: the 2-thread executor must clear the calibrated speedup
//   floor on at least one of the star/lollipop/power-law families, while
//   results stay bit-identical at 1, 2 and 8 threads. An expander rides
//   along as the no-skew control.
//
//   The 2-thread floor binds when the host has >= 4 hardware threads;
//   below that the experiment still runs and emits the BENCH_skew.json
//   trajectory point.
//
// The workload is a degree-proportional token storm: every node seeds
// ~deg/4 TTL-limited tokens that random-walk until they expire. Per-round
// work is proportional to local edge traffic -- the same shape as the
// paper's Phase 1 / GET-MORE-WALKS floods, which is exactly the traffic
// the executor must balance.
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"

namespace {

using namespace drw;

using bench::kSpeedupFloorT2;  ///< 1t->2t floor on >=4t hosts (shared)

/// Degree-proportional token storm. Each node folds its delivery stream
/// into a per-node checksum, so any divergence in delivery order or RNG
/// consumption across executor configurations is detected exactly.
class SkewStorm final : public congest::Protocol {
 public:
  SkewStorm(std::size_t n, std::uint32_t ttl) : sum_(n), ttl_(ttl) {}

  void on_round(congest::Context& ctx) override {
    const NodeId v = ctx.self();
    if (ctx.round() == 0) {
      const std::uint32_t seeds = 1 + ctx.degree() / 4;
      for (std::uint32_t t = 0; t < seeds; ++t) hop(ctx, ttl_);
      return;
    }
    for (const congest::Delivery& d : ctx.inbox()) {
      sum_[v] = sum_[v] * 1099511628211ull ^
                ((ctx.round() << 32) ^
                 (static_cast<std::uint64_t>(d.from) << 8) ^ d.msg.f[0]);
      if (d.msg.f[0] > 0) hop(ctx, d.msg.f[0] - 1);
    }
  }

  /// Order-sensitive digest over every node's delivery stream.
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint64_t s : sum_) h = (h ^ s) * 1099511628211ull;
    return h;
  }

 private:
  void hop(congest::Context& ctx, std::uint64_t ttl) {
    ctx.send(static_cast<std::uint32_t>(ctx.rng().next_below(ctx.degree())),
             congest::Message{1, {ttl, 0, 0, 0}});
  }

  std::vector<std::uint64_t> sum_;
  std::uint32_t ttl_;
};

struct StormPoint {
  double wall_ms = 0.0;
  std::uint64_t digest = 0;
  congest::RunStats stats;
};

StormPoint run_storm_once(const Graph& g, unsigned threads) {
  congest::Network net(g, 70707);
  net.set_threads(threads);
  SkewStorm storm(g.node_count(), 24);
  StormPoint point;
  point.stats = net.run(storm);
  point.wall_ms = point.stats.wall_ms;
  point.digest = storm.digest();
  return point;
}

/// Best-of-3 wall time: the storms are short (tens of ms), so a single
/// scheduler hiccup on a shared runner could swing a ratio gate by far
/// more than the thresholds -- the best of three approximates the
/// uncontended run. Same-seed reps double as a same-config determinism
/// check.
StormPoint run_storm(const Graph& g, unsigned threads) {
  StormPoint best = run_storm_once(g, threads);
  for (int rep = 0; rep < 2; ++rep) {
    const StormPoint again = run_storm_once(g, threads);
    if (again.digest != best.digest) {
      std::fprintf(stderr, "bench_skew: same-seed reps diverged\n");
      std::exit(1);
    }
    if (again.wall_ms < best.wall_ms) {
      best.wall_ms = again.wall_ms;
      best.stats = again.stats;
    }
  }
  return best;
}

struct FamilyResult {
  std::string name;
  double wall_t1 = 0.0;
  double wall_t2_edges = 0.0;
  double wall_t8_edges = 0.0;
  double speedup2 = 0.0;  ///< 1-thread wall / 2-thread wall
  bool deterministic = true;
  congest::RunStats stats_t8_edges;  ///< per-phase breakdown source
};

FamilyResult run_family(const std::string& name, const Graph& g) {
  FamilyResult r;
  r.name = name;
  const StormPoint t1 = run_storm(g, 1);
  const StormPoint t2e = run_storm(g, 2);
  const StormPoint t8e = run_storm(g, 8);
  r.wall_t1 = t1.wall_ms;
  r.wall_t2_edges = t2e.wall_ms;
  r.wall_t8_edges = t8e.wall_ms;
  r.speedup2 = t1.wall_ms / t2e.wall_ms;
  r.deterministic = t1.digest == t2e.digest && t1.digest == t8e.digest &&
                    t1.stats.rounds == t8e.stats.rounds &&
                    t1.stats.messages == t8e.stats.messages;
  r.stats_t8_edges = t8e.stats;
  return r;
}

int run_experiment() {
  Rng pl_rng(606);
  Rng reg_rng(707);
  struct Family {
    std::string name;
    Graph graph;
    bool gated;  ///< counts toward the 2-thread speedup floor
  };
  const Family families[] = {
      {"star", gen::star(12288), true},
      {"lollipop", gen::lollipop(192, 4096), true},
      {"powerlaw", gen::power_law(8192, 4, pl_rng), true},
      // No-skew control: the partition has nothing to rebalance here.
      {"expander", gen::random_regular(8192, 8, reg_rng), false},
  };

  bench::banner(
      "SKEW / edge-weighted shards on skewed degrees",
      "degree-proportional token storms on star/lollipop/power-law (the "
      "lower-bound gadget shapes) vs an expander control: same seeded "
      "storm at {1t, 2t, 8t}; results must be bit-identical, wall time "
      "must not be");

  const unsigned hw = std::thread::hardware_concurrency();
  bench::Table table(
      {"family", "t1 ms", "t2 ms", "t8 ms", "speedup @2"});
  bench::JsonReport json("skew");

  bool deterministic = true;
  double best_gated_speedup2 = 0.0;
  std::size_t grain = 0;
  for (const Family& family : families) {
    const FamilyResult r = run_family(family.name, family.graph);
    deterministic = deterministic && r.deterministic;
    // The floor takes the best 2-thread speedup over the gated families: a
    // genuinely serialized executor scores ~1.0 on ALL of them, while a
    // healthy one clears the floor on at least one even if a particular
    // family's short storm caught scheduler noise.
    if (family.gated && r.speedup2 > best_gated_speedup2) {
      best_gated_speedup2 = r.speedup2;
    }
    table.add_row({family.name, bench::fmt_double(r.wall_t1, 1),
                   bench::fmt_double(r.wall_t2_edges, 1),
                   bench::fmt_double(r.wall_t8_edges, 1),
                   bench::fmt_double(r.speedup2, 2)});
    json.add("wall_ms_" + r.name + "_t1", r.wall_t1);
    json.add("wall_ms_" + r.name + "_t2_edges", r.wall_t2_edges);
    json.add("wall_ms_" + r.name + "_t8_edges", r.wall_t8_edges);
    json.add("speedup2_" + r.name, r.speedup2);
    json.add("rounds_" + r.name, r.stats_t8_edges.rounds);
    json.add("messages_" + r.name, r.stats_t8_edges.messages);
    bench::add_phase_fields(json, r.name + "_t8_edges_", r.stats_t8_edges);
  }
  table.print();

  // The dispatch grain actually in effect (one probe network; the grain is
  // per-width, so build it at the widest sweep point).
  {
    congest::Network probe(families[0].graph, 1);
    probe.set_threads(8);
    SkewStorm tiny(families[0].graph.node_count(), 0);
    (void)probe.run(tiny);
    grain = probe.dispatch_grain();
  }
  json.add("dispatch_grain", static_cast<std::uint64_t>(grain));
  json.add("hw_threads", static_cast<std::uint64_t>(hw));
  json.add("speedup_floor_t2", kSpeedupFloorT2);
  json.add("best_gated_speedup2", best_gated_speedup2);
  json.add("deterministic", deterministic ? 1 : 0);

  // The calibrated 2-thread floor binds on hosts with >= 4 hardware
  // threads; trajectory-only below that.
  const bool enforce2 = hw >= 4;
  const bool pass2 = !enforce2 || best_gated_speedup2 >= kSpeedupFloorT2;
  std::printf(
      "acceptance: bit-identical across configs: %s; best skew-family "
      "2-thread speedup %.2fx (>=%.2fx floor %s)\n",
      deterministic ? "PASS" : "FAIL", best_gated_speedup2, kSpeedupFloorT2,
      !enforce2 ? "SKIP, <4 hw threads" : (pass2 ? "PASS" : "FAIL"));
  json.write();
  return deterministic && pass2 ? 0 : 1;
}

}  // namespace

int main() { return run_experiment(); }
