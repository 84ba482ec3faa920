#include "core/random_walks.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "util/stats.hpp"
#include "walk_test_utils.hpp"

namespace drw::core {
namespace {

using congest::Network;

/// The central Las Vegas property (Theorem 2.5): the destination returned by
/// SINGLE-RANDOM-WALK is an exact sample from the l-step walk distribution.
/// Parameterized over (graph family, l, lambda override) so the stitched
/// path, the GET-MORE-WALKS path and the naive tail are all exercised.
struct DistCase {
  const char* name;
  Graph graph;
  NodeId source;
  std::uint64_t l;
  std::uint32_t lambda_override;  // 0 = formula
  int runs;
};

class EndpointDistribution : public ::testing::TestWithParam<int> {};

std::vector<DistCase> distribution_cases() {
  Rng rng(77);
  std::vector<DistCase> cases;
  cases.push_back({"path5_l7_lam2", gen::path(5), 0, 7, 2, 3000});
  cases.push_back({"cycle5_l8_lam3", gen::cycle(5), 1, 8, 3, 3000});
  cases.push_back({"complete5_l6_lam2", gen::complete(5), 0, 6, 2, 3000});
  cases.push_back({"lollipop_l9_lam3", gen::lollipop(4, 3), 6, 9, 3, 3000});
  cases.push_back({"grid33_l8_default", gen::grid(3, 3), 4, 8, 0, 3000});
  cases.push_back(
      {"er12_l10_lam3", gen::erdos_renyi_connected(12, 0.3, rng), 2, 10, 3,
       3000});
  return cases;
}

TEST_P(EndpointDistribution, MatchesMarkovOracleExactly) {
  const auto cases = distribution_cases();
  const DistCase& c = cases[static_cast<std::size_t>(GetParam())];
  const MarkovOracle oracle(c.graph);
  const auto expected = oracle.distribution_after(c.source, c.l);
  const std::uint32_t diameter = exact_diameter(c.graph);

  Params params = Params::paper();
  params.lambda_override = c.lambda_override;

  std::vector<std::uint64_t> counts(c.graph.node_count(), 0);
  for (int run = 0; run < c.runs; ++run) {
    Network net(c.graph, 9000 + run);
    const SingleWalkOutput out =
        single_random_walk(net, c.source, c.l, params, diameter);
    ASSERT_LT(out.result.destination, c.graph.node_count());
    ++counts[out.result.destination];
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4)
      << c.name << ": chi2=" << result.statistic << " dof=" << result.dof;
}

INSTANTIATE_TEST_SUITE_P(Cases, EndpointDistribution, ::testing::Range(0, 6));

TEST(SingleWalk, RegeneratedPositionsFormTheWalk) {
  // Section 2.2: after regeneration every node knows its position(s); the
  // reconstructed sequence must be a valid l-step walk.
  Rng rng(5);
  const Graph g = gen::random_geometric(30, 0.3, rng);
  const std::uint32_t diameter = exact_diameter(g);
  Params params = Params::paper();
  params.record_trajectories = true;
  params.lambda_override = 4;  // force several stitches
  for (int run = 0; run < 25; ++run) {
    Network net(g, 400 + run);
    const std::uint64_t l = 30 + run;
    const SingleWalkOutput out = single_random_walk(net, 3, l, params,
                                                    diameter);
    test::expect_valid_walk(g, out.positions, 0, l, 3,
                            out.result.destination);
  }
}

TEST(SingleWalk, ContinuedWalkFormsOnePathAcrossEpochs) {
  // continue_walk extends a logical walk across prepare() epochs (the RST
  // application's doubling phases): the positions recorded in both epochs
  // together must form one valid walk with steps 0..l1+l2. The second
  // epoch stitches on the same engine, or -- on odd runs -- walks naively
  // on a second engine whose lambda exceeds l2.
  Rng rng(6);
  const Graph g = gen::random_geometric(30, 0.3, rng);
  const std::uint32_t diameter = exact_diameter(g);
  Params params = Params::paper();
  params.record_trajectories = true;
  params.lambda_override = 3;
  Params naive = params;
  naive.lambda_override = 64;
  const std::uint64_t l1 = 24;
  const std::uint64_t l2 = 31;
  for (int run = 0; run < 10; ++run) {
    Network net(g, 700 + run);
    StitchEngine engine(net, params, diameter);
    engine.prepare(1, l1);
    const WalkResult first = engine.walk(2, l1, 0);
    PositionTable positions = engine.drain_positions();

    StitchEngine naive_engine(net, naive, diameter);
    StitchEngine& second = run % 2 == 0 ? engine : naive_engine;
    second.prepare(1, l2);
    ASSERT_EQ(second.naive_mode(), run % 2 != 0);
    const WalkResult rest =
        second.continue_walk(first.destination, l2, 0, l1);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& more = second.positions()[v];
      positions[v].insert(positions[v].end(), more.begin(), more.end());
    }
    test::expect_valid_walk(g, positions, 0, l1 + l2, 2, rest.destination);
  }
}

TEST(SingleWalk, GetMoreWalksPathIsExercisedAndValid) {
  // Repeated walks from one engine deplete the store and force
  // GET-MORE-WALKS; positions must stay valid (reverse replay).
  const Graph g = gen::grid(4, 4);
  const std::uint32_t diameter = exact_diameter(g);
  Params params = Params::paper();
  params.record_trajectories = true;
  params.lambda_override = 3;
  params.eta = 1.0;

  Network net(g, 4242);
  StitchEngine engine(net, params, diameter);
  const std::uint64_t l = 40;
  engine.prepare(1, l);
  std::uint64_t gmw_total = 0;
  for (std::uint32_t w = 0; w < 12; ++w) {
    const WalkResult result = engine.walk(0, l, w);
    gmw_total += result.counters.get_more_walks_calls;
    test::expect_valid_walk(g, engine.positions(), w, l, 0,
                            result.destination);
  }
  EXPECT_GT(gmw_total, 0u) << "test never exercised GET-MORE-WALKS";
}

TEST(SingleWalk, Podc09PresetDistributionAlsoExact) {
  const Graph g = gen::cycle(6);
  const MarkovOracle oracle(g);
  const std::uint64_t l = 9;
  const auto expected = oracle.distribution_after(0, l);
  Params params = Params::podc09();
  params.lambda_override = 3;
  params.eta = 2.0;

  std::vector<std::uint64_t> counts(g.node_count(), 0);
  const int runs = 3000;
  for (int run = 0; run < runs; ++run) {
    Network net(g, 7000 + run);
    const SingleWalkOutput out = single_random_walk(net, 0, l, params, 3);
    ++counts[out.result.destination];
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(SingleWalk, NaiveBaselineDistributionExact) {
  const Graph g = gen::lollipop(3, 2);
  const MarkovOracle oracle(g);
  const std::uint64_t l = 7;
  const auto expected = oracle.distribution_after(4, l);
  std::vector<std::uint64_t> counts(g.node_count(), 0);
  const int runs = 3000;
  for (int run = 0; run < runs; ++run) {
    Network net(g, 11000 + run);
    ++counts[naive_random_walk(net, 4, l).destination];
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(SingleWalk, NaiveWalkCostsExactlyLRounds) {
  const Graph g = gen::torus(5, 5);
  Network net(g, 1);
  const WalkResult result = naive_random_walk(net, 0, 200);
  EXPECT_EQ(result.stats.rounds, 200u);
}

TEST(SingleWalk, StitchedBeatsNaiveOnLongWalks) {
  // The headline claim, qualitatively: for l >> D the stitched walk takes
  // far fewer rounds than l.
  Rng rng(31);
  const Graph g = gen::random_regular(64, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::uint64_t l = 4096;
  Network net(g, 2);
  const SingleWalkOutput out =
      single_random_walk(net, 0, l, Params::paper(), diameter);
  EXPECT_LT(out.result.stats.rounds, l / 2)
      << "lambda=" << out.result.counters.lambda
      << " stitches=" << out.result.counters.stitches;
  EXPECT_GT(out.result.counters.stitches, 0u);
}

TEST(SingleWalk, ZeroLengthWalkStaysAtSource) {
  const Graph g = gen::cycle(5);
  Network net(g, 3);
  StitchEngine engine(net, Params::paper(), 2);
  engine.prepare(1, 0);
  const WalkResult result = engine.walk(2, 0, 0);
  EXPECT_EQ(result.destination, 2u);
}

TEST(SingleWalk, WalkLongerThanPreparedThrows) {
  const Graph g = gen::cycle(5);
  Network net(g, 3);
  StitchEngine engine(net, Params::paper(), 2);
  engine.prepare(1, 10);
  EXPECT_THROW(engine.walk(0, 11, 0), std::logic_error);
}

TEST(SingleWalk, UnpreparedEngineThrows) {
  const Graph g = gen::cycle(5);
  Network net(g, 3);
  StitchEngine engine(net, Params::paper(), 2);
  EXPECT_THROW(engine.walk(0, 5, 0), std::logic_error);
}

TEST(SingleWalk, CountersAreCoherent) {
  const Graph g = gen::grid(5, 5);
  Params params = Params::paper();
  params.lambda_override = 5;
  Network net(g, 8);
  const SingleWalkOutput out = single_random_walk(net, 0, 100, params, 8);
  const WalkCounters& c = out.result.counters;
  EXPECT_EQ(c.lambda, 5u);
  EXPECT_GT(c.stitches, 0u);
  EXPECT_GE(c.sample_calls, c.stitches);
  EXPECT_GT(c.walks_prepared, 0u);
  EXPECT_LE(c.naive_tail_steps, 2u * c.lambda);
  // The naive tail and the regeneration share one run, which lasts at
  // least the tail's steps.
  EXPECT_GE(c.finish.rounds, c.naive_tail_steps);
  EXPECT_EQ(out.result.stats.rounds,
            c.phase1.rounds + c.phase2.rounds + c.finish.rounds);
}

}  // namespace
}  // namespace drw::core
