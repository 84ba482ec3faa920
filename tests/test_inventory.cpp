// WalkInventory bookkeeping and the StitchEngine serving-layer hooks:
// store exposure, targeted replenishment, plan adoption, and state
// release/adopt round-trips.
#include "service/walk_inventory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "congest/network.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace drw::service {
namespace {

using congest::Network;
using core::Params;
using core::StitchEngine;

Params small_lambda_params() {
  Params params = Params::paper();
  params.lambda_override = 3;
  return params;
}

TEST(EngineHooks, UnusedCountsMatchStoreScan) {
  const Graph g = gen::grid(4, 4);
  Network net(g, 11);
  StitchEngine engine(net, small_lambda_params(), exact_diameter(g));
  engine.prepare(1, 40);
  for (std::uint32_t w = 0; w < 5; ++w) engine.walk(0, 40, w);

  const std::vector<std::uint64_t> counts = engine.unused_counts_by_source();
  ASSERT_EQ(counts.size(), g.node_count());
  std::uint64_t manual_total = 0;
  std::vector<std::uint64_t> manual(g.node_count(), 0);
  for (const auto& held : engine.store().held) {
    for (const core::HeldToken& t : held) {
      if (!t.used) {
        ++manual[t.source];
        ++manual_total;
      }
    }
  }
  EXPECT_EQ(counts, manual);
  EXPECT_GT(manual_total, 0u);
}

TEST(EngineHooks, ReplenishAddsExactlyCountUnusedTokens) {
  const Graph g = gen::torus(5, 5);
  Network net(g, 3);
  StitchEngine engine(net, small_lambda_params(), exact_diameter(g));
  engine.prepare(1, 30);
  const std::vector<std::uint64_t> before = engine.unused_counts_by_source();
  std::vector<std::size_t> phase1_held;
  for (const auto& held : engine.store().held) {
    phase1_held.push_back(held.size());
  }

  const congest::RunStats stats = engine.replenish({{7, 10}});
  const std::vector<std::uint64_t> after = engine.unused_counts_by_source();
  EXPECT_EQ(after[7], before[7] + 10);
  // GET-MORE-WALKS is O(lambda) rounds regardless of count (aggregation).
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_LE(stats.rounds, 8u * engine.lambda());
  // Fresh tokens are appended after the Phase-1 ones, all from source 7,
  // with lengths in [lambda, 2*lambda).
  std::uint64_t fresh = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& held = engine.store().held[v];
    for (std::size_t i = phase1_held[v]; i < held.size(); ++i) {
      EXPECT_EQ(held[i].source, 7u);
      EXPECT_GE(held[i].length, engine.lambda());
      EXPECT_LT(held[i].length, 2 * engine.lambda());
      ++fresh;
    }
  }
  EXPECT_EQ(fresh, 10u);
}

// A batch's top-ups are one GET-MORE-WALKS run: one Network::run however
// many sources it tops up, each source receiving its counts under one
// generation per entry, and the routing records left sorted so the next
// lookup at a touched node does not re-sort its whole array.
TEST(EngineHooks, ReplenishRunsEveryTopUpInOneNetworkRun) {
  const Graph g = gen::torus(5, 5);
  Network net(g, 3);
  Params params = small_lambda_params();
  params.record_trajectories = true;
  StitchEngine engine(net, params, exact_diameter(g));
  engine.prepare(1, 30);
  const std::vector<std::uint64_t> before = engine.unused_counts_by_source();
  const std::uint32_t first_gen = engine.trajectories().next_generation;

  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const std::uint64_t runs = reg.counter("executor.runs").value();
  engine.replenish({{7, 10}, {8, 6}, {12, 9}, {7, 3}});
  const std::uint64_t top_up_runs = reg.counter("executor.runs").value() - runs;
  reg.set_enabled(was_enabled);
  EXPECT_EQ(top_up_runs, 1u);

  const std::vector<std::uint64_t> after = engine.unused_counts_by_source();
  EXPECT_EQ(after[7], before[7] + 13);
  EXPECT_EQ(after[8], before[8] + 6);
  EXPECT_EQ(after[12], before[12] + 9);
  const core::TrajectoryStore& traj = engine.trajectories();
  EXPECT_EQ(traj.next_generation, first_gen + 4);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(traj.gmw_unsorted[v], 0) << "node " << v;
    EXPECT_TRUE(std::is_sorted(traj.gmw[v].begin(), traj.gmw[v].end()))
        << "node " << v;
  }
}

TEST(EngineHooks, ReplenishedTokensYieldExactWalkDistribution) {
  // A walk stitched from externally replenished (GET-MORE-WALKS) tokens
  // must still be an exact l-step sample. Phase 1 leaves each node only
  // eta*deg = 2 walks; replenishing 40 more from node 0 means the sampled
  // stitches overwhelmingly consume topped-up stock.
  const Graph g = gen::cycle(5);
  const MarkovOracle oracle(g);
  const std::uint64_t l = 8;
  const auto expected = oracle.distribution_after(0, l);
  Params params = small_lambda_params();
  params.lambda_override = 3;

  std::vector<std::uint64_t> counts(g.node_count(), 0);
  std::uint64_t getmore_consumed = 0;
  const int runs = 2500;
  for (int run = 0; run < runs; ++run) {
    Network net(g, 52000 + run);
    StitchEngine engine(net, params, 2);
    engine.prepare(1, l);
    std::vector<std::size_t> phase1_held;
    for (const auto& held : engine.store().held) {
      phase1_held.push_back(held.size());
    }
    engine.replenish({{0, 40}});
    ++counts[engine.walk(0, l, 0).destination];
    // Replenished tokens are the ones appended after the Phase-1 ones.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& held = engine.store().held[v];
      for (std::size_t i = phase1_held[v]; i < held.size(); ++i) {
        getmore_consumed += held[i].used;
      }
    }
  }
  EXPECT_GT(getmore_consumed, 0u)
      << "test never consumed a replenished token";
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(EngineHooks, AdoptPlanKeepsInventoryAndLambda) {
  const Graph g = gen::grid(4, 4);
  Network net(g, 9);
  StitchEngine engine(net, small_lambda_params(), exact_diameter(g));
  engine.prepare(2, 30);
  const std::uint32_t lambda = engine.lambda();
  const auto stock_before = engine.unused_counts_by_source();

  engine.adopt_plan(8, 60);
  EXPECT_EQ(engine.lambda(), lambda);
  EXPECT_EQ(engine.prepared_k(), 8u);
  EXPECT_EQ(engine.prepared_l(), 60u);
  EXPECT_EQ(engine.unused_counts_by_source(), stock_before);
  // Walks longer than the original envelope are now allowed.
  EXPECT_NO_THROW(engine.walk(0, 60, 0));
}

TEST(EngineHooks, ReleaseAdoptStateRoundTrip) {
  const Graph g = gen::torus(4, 4);
  const std::uint32_t diameter = exact_diameter(g);
  Network net(g, 5);
  StitchEngine first(net, small_lambda_params(), diameter);
  first.prepare(1, 30);
  const auto stock = first.unused_counts_by_source();

  StitchEngine::EngineState state = first.release_state();
  EXPECT_FALSE(first.prepared());
  EXPECT_THROW(first.walk(0, 10, 0), std::logic_error);

  StitchEngine second(net, small_lambda_params(), diameter);
  second.adopt_state(std::move(state));
  EXPECT_TRUE(second.prepared());
  EXPECT_EQ(second.unused_counts_by_source(), stock);
  const core::WalkResult walk = second.walk(0, 30, 0);
  EXPECT_LT(walk.destination, g.node_count());
  // No Phase 1 ran in `second`: the walk's counters carry no prepared cost.
  EXPECT_EQ(walk.counters.walks_prepared, 0u);
}

TEST(EngineHooks, HookPreconditionsThrow) {
  const Graph g = gen::cycle(6);
  Network net(g, 1);
  StitchEngine engine(net, Params::paper(), 3);
  EXPECT_THROW(engine.replenish({{0, 4}}), std::logic_error);
  EXPECT_THROW(engine.adopt_plan(1, 10), std::logic_error);
  EXPECT_THROW(engine.release_state(), std::logic_error);

  StitchEngine other(net, Params::paper(), 3);
  StitchEngine::EngineState bogus;
  bogus.lambda = 0;
  EXPECT_THROW(other.adopt_state(std::move(bogus)), std::invalid_argument);
}

TEST(RunStatsDelta, SaturatingDifference) {
  congest::RunStats later{100, 2000, 7};
  const congest::RunStats earlier{40, 500, 3};
  const congest::RunStats delta = later - earlier;
  EXPECT_EQ(delta.rounds, 60u);
  EXPECT_EQ(delta.messages, 1500u);
  const congest::RunStats clamped = earlier - later;
  EXPECT_EQ(clamped.rounds, 0u);
  EXPECT_EQ(clamped.messages, 0u);
}

TEST(Inventory, RefreshTracksSupplyAndDemand) {
  const Graph g = gen::grid(4, 4);
  Network net(g, 21);
  StitchEngine engine(net, small_lambda_params(), exact_diameter(g));
  engine.prepare(1, 40);

  WalkInventory inventory(g.node_count());
  inventory.refresh(engine);
  const std::uint64_t stock0 = inventory.total_unused();
  EXPECT_GT(stock0, 0u);
  EXPECT_EQ(inventory.total_demand(), 0u);

  core::WalkResult walk = engine.walk(0, 40, 0);
  inventory.refresh(engine);
  // Every stitch consumed one token and counted one connector visit.
  EXPECT_EQ(inventory.total_demand(), walk.counters.stitches);
  if (walk.counters.get_more_walks_calls == 0) {
    // No in-walk top-up: stock shrank by exactly the stitch count.
    EXPECT_EQ(stock0 - inventory.total_unused(), walk.counters.stitches);
  }
  // Second refresh without walks: demand delta drops to zero.
  inventory.refresh(engine);
  EXPECT_EQ(inventory.total_demand(), 0u);
}

TEST(Inventory, PlanTargetsStarvedConnectorsOnly) {
  const Graph g = gen::grid(3, 3);
  Network net(g, 33);
  Params params = small_lambda_params();
  params.lambda_override = 2;
  StitchEngine engine(net, params, exact_diameter(g));
  engine.prepare(1, 60);

  WalkInventory inventory(g.node_count());
  inventory.refresh(engine);
  for (std::uint32_t w = 0; w < 6; ++w) engine.walk(4, 60, w);
  inventory.refresh(engine);

  InventoryPolicy policy;
  policy.min_batch = 2;
  policy.headroom = 2.0;
  const std::vector<core::TopUp> plan =
      inventory.plan_replenishment(policy);
  for (const core::TopUp& r : plan) {
    // Only nodes whose demand outran their remaining stock are topped up.
    EXPECT_GT(inventory.demand(r.source), inventory.unused(r.source));
    EXPECT_GE(r.count, policy.min_batch);
    EXPECT_LE(r.count, policy.max_batch);
  }
  // Plan is most-starved first.
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_GE(plan[i - 1].count, plan[i].count);
  }
}

}  // namespace
}  // namespace drw::service
