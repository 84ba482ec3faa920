#include "core/protocols.hpp"

#include <gtest/gtest.h>

#include "congest/primitives.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace drw::core {
namespace {

using congest::Network;
using congest::RunStats;

TEST(ShortWalkPhase, StoresEveryWalkWithItsLength) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(25, 0.2, rng);
  Network net(g, 11);
  WalkStore store(g.node_count());
  std::vector<ShortWalkPhaseProtocol::Job> jobs;
  std::size_t expected = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::uint32_t i = 0; i < g.degree(v); ++i) {
      jobs.push_back(ShortWalkPhaseProtocol::Job{v, i, 4 + (i % 4)});
      ++expected;
    }
  }
  ShortWalkPhaseProtocol protocol(g, jobs, store, nullptr);
  net.run(protocol);
  std::size_t stored = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      EXPECT_FALSE(t.used);
      EXPECT_EQ(t.kind, WalkKind::kPhase1);
      EXPECT_GE(t.length, 4u);
      EXPECT_LE(t.length, 7u);
      ++stored;
    }
  }
  EXPECT_EQ(stored, expected);
}

TEST(ShortWalkPhase, TrajectoriesReplayToTheStoredEndpoint) {
  // With trajectories recorded, following the per-hop pointers from the
  // source must land exactly on the node holding the stored token.
  const Graph g = gen::grid(4, 4);
  Network net(g, 13);
  WalkStore store(g.node_count());
  TrajectoryStore traj(g.node_count());
  const std::uint32_t length = 9;
  std::vector<ShortWalkPhaseProtocol::Job> jobs{{0, 0, length}};
  ShortWalkPhaseProtocol protocol(g, jobs, store, &traj);
  net.run(protocol);
  traj.sort_forward();

  NodeId holder = kInvalidNode;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!store.held[v].empty()) holder = v;
  }
  ASSERT_NE(holder, kInvalidNode);

  NodeId at = 0;
  for (std::uint32_t hop = 0; hop < length; ++hop) {
    const ForwardRecord* r =
        traj.find_forward(at, TrajectoryStore::key(0, 0), hop);
    ASSERT_NE(r, nullptr) << "missing hop " << hop;
    at = g.neighbor(at, r->next_slot);
  }
  EXPECT_EQ(at, holder);
  // The endpoint has no outgoing record: that is where the replay stops.
  EXPECT_EQ(traj.find_forward(at, TrajectoryStore::key(0, 0), length),
            nullptr);
}

TEST(GetMoreWalks, StoresExactlyCountWalks) {
  Rng rng(7);
  const Graph g = gen::random_geometric(40, 0.3, rng);
  Network net(g, 17);
  WalkStore store(g.node_count());
  GetMoreWalksProtocol protocol(g, 4, 30, 6, true, store, nullptr);
  net.run(protocol);
  std::size_t stored = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      EXPECT_EQ(t.source, 4u);
      EXPECT_EQ(t.kind, WalkKind::kGetMore);
      EXPECT_GE(t.length, 6u);
      EXPECT_LE(t.length, 11u);
      ++stored;
    }
  }
  EXPECT_EQ(stored, 30u);
}

TEST(GetMoreWalks, AggregationAvoidsCongestion) {
  // Counts are aggregated per edge, so even many walks never queue: the
  // whole subroutine finishes in ~2*lambda rounds with backlog <= 1
  // ("no congestion occurs ... only the count of the number of walks along
  // an edge are passed").
  const Graph g = gen::complete(10);
  Network net(g, 19);
  WalkStore store(g.node_count());
  const std::uint32_t lambda = 20;
  GetMoreWalksProtocol protocol(g, 0, 500, lambda, true, store, nullptr);
  const RunStats stats = net.run(protocol);
  EXPECT_LE(stats.max_backlog, 1u);
  EXPECT_LE(stats.rounds, 2u * lambda + 2);
}

TEST(GetMoreWalks, LengthsUniformInRange) {
  // Lemma 2.4 (reservoir part): walk lengths are uniform in
  // [lambda, 2*lambda - 1].
  const Graph g = gen::complete(8);
  const std::uint32_t lambda = 8;
  std::vector<std::uint64_t> counts(lambda, 0);
  for (int run = 0; run < 60; ++run) {
    Network net(g, 100 + run);
    WalkStore store(g.node_count());
    GetMoreWalksProtocol protocol(g, 0, 100, lambda, true, store, nullptr);
    net.run(protocol);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (const HeldToken& t : store.held[v]) {
        ASSERT_GE(t.length, lambda);
        ASSERT_LT(t.length, 2 * lambda);
        ++counts[t.length - lambda];
      }
    }
  }
  const std::vector<double> expected(lambda, 1.0 / lambda);
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(GetMoreWalks, FixedLengthModeStopsAtLambda) {
  const Graph g = gen::cycle(12);
  Network net(g, 23);
  WalkStore store(g.node_count());
  GetMoreWalksProtocol protocol(g, 1, 40, 5, false, store, nullptr);
  const RunStats stats = net.run(protocol);
  std::size_t stored = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      EXPECT_EQ(t.length, 5u);
      ++stored;
    }
  }
  EXPECT_EQ(stored, 40u);
  EXPECT_LE(stats.rounds, 6u);
}

TEST(SampleConvergecast, FindsTheOnlyToken) {
  const Graph g = gen::grid(3, 3);
  Network net(g, 29);
  WalkStore store(g.node_count());
  store.held[7].push_back(HeldToken{2, 9, 6, WalkKind::kPhase1, 0, false});
  RunStats stats;
  const congest::BfsTree tree = congest::build_bfs_tree(net, 2, stats);
  SampleConvergecast sample(tree, store, 2);
  net.run(sample);
  EXPECT_EQ(sample.result().count, 1u);
  EXPECT_EQ(sample.result().holder, 7u);
  EXPECT_EQ(sample.result().length, 6u);
  EXPECT_EQ(sample.result().seq, 9u);
  EXPECT_EQ(sample.result().kind, WalkKind::kPhase1);
}

TEST(SampleConvergecast, IgnoresUsedAndForeignTokens) {
  const Graph g = gen::grid(3, 3);
  Network net(g, 31);
  WalkStore store(g.node_count());
  store.held[4].push_back(HeldToken{2, 0, 6, WalkKind::kPhase1, 0, true});
  store.held[5].push_back(HeldToken{3, 0, 6, WalkKind::kPhase1, 0, false});
  RunStats stats;
  const congest::BfsTree tree = congest::build_bfs_tree(net, 2, stats);
  SampleConvergecast sample(tree, store, 2);
  net.run(sample);
  EXPECT_EQ(sample.result().count, 0u);  // NULL: GET-MORE-WALKS needed
}

TEST(SampleConvergecast, UniformOverAllUnusedTokens) {
  // Lemma A.2: every unused token is returned with probability 1/t.
  const Graph g = gen::path(5);
  WalkStore store(g.node_count());
  // 6 tokens from source 0 spread over nodes 1, 3, 4.
  store.held[1].push_back(HeldToken{0, 0, 4, WalkKind::kPhase1, 0, false});
  store.held[1].push_back(HeldToken{0, 1, 4, WalkKind::kPhase1, 0, false});
  store.held[3].push_back(HeldToken{0, 2, 4, WalkKind::kPhase1, 0, false});
  store.held[3].push_back(HeldToken{0, 3, 4, WalkKind::kPhase1, 0, false});
  store.held[3].push_back(HeldToken{0, 4, 4, WalkKind::kPhase1, 0, false});
  store.held[4].push_back(HeldToken{0, 5, 4, WalkKind::kPhase1, 0, false});

  std::vector<std::uint64_t> counts(6, 0);
  const int runs = 6000;
  for (int r = 0; r < runs; ++r) {
    Network net(g, 500 + r);
    RunStats stats;
    const congest::BfsTree tree = congest::build_bfs_tree(net, 0, stats);
    SampleConvergecast sample(tree, store, 0);
    net.run(sample);
    ASSERT_EQ(sample.result().count, 6u);
    ++counts[sample.result().seq];
  }
  const std::vector<double> expected(6, 1.0 / 6.0);
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(NaiveSegment, DestinationMatchesPositions) {
  const Graph g = gen::torus(4, 4);
  Network net(g, 37);
  PositionTable positions(g.node_count());
  NaiveSegmentProtocol protocol(
      g, {NaiveSegmentProtocol::Job{3, 10, 7, 100, true}}, &positions);
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(stats.rounds, 10u);

  // Positions 100..110 must each occur exactly once, forming a walk.
  std::vector<NodeId> at(11, kInvalidNode);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const WalkPosition& p : positions[v]) {
      EXPECT_EQ(p.walk, 7u);
      ASSERT_GE(p.step, 100u);
      ASSERT_LE(p.step, 110u);
      EXPECT_EQ(at[p.step - 100], kInvalidNode) << "duplicate step";
      at[p.step - 100] = v;
    }
  }
  EXPECT_EQ(at[0], 3u);
  EXPECT_EQ(at[10], protocol.destinations()[0]);
  for (std::size_t i = 1; i < at.size(); ++i) {
    ASSERT_NE(at[i], kInvalidNode);
    EXPECT_TRUE(g.has_edge(at[i - 1], at[i]));
  }
}

TEST(NaiveSegment, ParallelJobsFromSameStart) {
  const Graph g = gen::complete(6);
  Network net(g, 41);
  std::vector<NaiveSegmentProtocol::Job> jobs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    jobs.push_back(NaiveSegmentProtocol::Job{0, 5, i, 0, true});
  }
  NaiveSegmentProtocol protocol(g, jobs, nullptr);
  net.run(protocol);
  for (NodeId dest : protocol.destinations()) {
    EXPECT_NE(dest, kInvalidNode);
  }
}

}  // namespace
}  // namespace drw::core
