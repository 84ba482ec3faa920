#include "congest/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace drw::congest {
namespace {

TEST(BfsTreeProtocol, DepthsMatchBfsDistances) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(50, 0.08, rng);
  Network net(g, 7);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 5, stats);
  const auto dist = bfs_distances(g, 5);
  EXPECT_EQ(tree.root, 5u);
  EXPECT_EQ(tree.parent[5], 5u);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(tree.depth[v], dist[v]) << "node " << v;
    if (v != 5) {
      EXPECT_TRUE(g.has_edge(v, tree.parent[v]));
      EXPECT_EQ(tree.depth[v], tree.depth[tree.parent[v]] + 1);
    }
  }
  EXPECT_EQ(tree.height, eccentricity(g, 5));
  // BFS flooding takes ~height rounds (+1 for the join notifications).
  EXPECT_GE(stats.rounds, tree.height);
  EXPECT_LE(stats.rounds, static_cast<std::uint64_t>(tree.height) + 2);
}

TEST(BfsTreeProtocol, ChildrenAreConsistent) {
  const Graph g = gen::grid(5, 5);
  Network net(g, 9);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::size_t child_links = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId c : tree.children_of(v)) {
      EXPECT_EQ(tree.parent[c], v);
      ++child_links;
    }
  }
  EXPECT_EQ(child_links, g.node_count() - 1);
}

/// The shapes the flat-tree checks sweep: a hub, a clique with a tail, a
/// grid and a random expander.
std::vector<Graph> tree_test_graphs() {
  Rng rng(64);
  std::vector<Graph> graphs;
  graphs.push_back(gen::star(12));
  graphs.push_back(gen::lollipop(6, 6));
  graphs.push_back(gen::grid(5, 5));
  graphs.push_back(gen::random_regular(64, 4, rng));
  return graphs;
}

TEST(BfsTreeProtocol, FlatTreeIsConsistentFromEveryRoot) {
  for (const Graph& g : tree_test_graphs()) {
    const std::size_t n = g.node_count();
    Network net(g, 5);
    for (NodeId root = 0; root < n; ++root) {
      RunStats stats;
      const BfsTree tree = build_bfs_tree(net, root, stats);
      const auto dist = bfs_distances(g, root);
      ASSERT_EQ(tree.root, root);
      ASSERT_EQ(tree.parent.size(), n);
      ASSERT_EQ(tree.child_begin.size(), n + 1);
      ASSERT_EQ(tree.children.size(), n - 1);
      EXPECT_EQ(tree.bytes(), 20 * n);
      EXPECT_EQ(tree.parent[root], root);
      EXPECT_EQ(tree.height, eccentricity(g, root));
      std::vector<int> listed(n, 0);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(tree.depth[v], dist[v]) << "root " << root << " node " << v;
        const auto kids = tree.children_of(v);
        EXPECT_EQ(kids.size(), tree.child_count(v));
        EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
        for (const NodeId c : kids) {
          EXPECT_EQ(tree.parent[c], v) << "root " << root;
          EXPECT_TRUE(g.has_edge(v, c));
          ++listed[c];
        }
      }
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(listed[v], v == root ? 0 : 1) << "root " << root;
        std::uint32_t below = 0;
        for (const NodeId c : tree.children_of(v)) {
          below = std::max(below, tree.subtree_height[c] + 1);
        }
        EXPECT_EQ(tree.subtree_height[v], below) << "root " << root;
      }
      EXPECT_EQ(tree.subtree_height[root], tree.height);
    }
  }
}

TEST(BfsTreeCache, RestoreRebuildsTheCachedTrees) {
  // A warm restart rebuilds the snapshot's cached roots on a fresh network
  // (other seed: BFS draws no randomness); every tree must equal the one the
  // cache held, and the rebuild is charged to nobody.
  for (const Graph& g : tree_test_graphs()) {
    const std::size_t n = g.node_count();
    Network before(g, 5);
    BfsTreeCache cache(n, std::size_t{1} << 20);
    for (NodeId root = 0; root < n; root += 2) {
      RunStats stats;
      ASSERT_NE(cache.insert(build_bfs_tree(before, root, stats)), nullptr);
    }
    Network after(g, 99);
    BfsTreeCache restored(n, std::size_t{1} << 20);
    restored.restore(after, cache.roots());
    EXPECT_EQ(restored.roots(), cache.roots());
    EXPECT_EQ(restored.bytes(), cache.bytes());
    for (const NodeId root : cache.roots()) {
      ASSERT_NE(restored.find(root), nullptr);
      EXPECT_EQ(*restored.find(root), *cache.find(root)) << "root " << root;
    }
  }
}

TEST(BfsTreeCache, StaysWithinItsByteBudget) {
  const Graph g = gen::grid(5, 5);
  Network net(g, 3);
  RunStats stats;
  const std::size_t tree_bytes = build_bfs_tree(net, 0, stats).bytes();
  BfsTreeCache cache(g.node_count(), 3 * tree_bytes + tree_bytes / 2);
  for (NodeId root = 0; root < 5; ++root) {
    BfsTree tree = build_bfs_tree(net, root, stats);
    const BfsTree* kept = cache.insert(std::move(tree));
    if (root < 3) {
      ASSERT_NE(kept, nullptr);
      EXPECT_EQ(kept, cache.find(root));
    } else {
      // Declined: the caller's tree is left intact for per-visit use.
      EXPECT_EQ(kept, nullptr);
      EXPECT_EQ(cache.find(root), nullptr);
      EXPECT_EQ(tree.root, root);
      EXPECT_EQ(tree.parent.size(), g.node_count());
    }
    EXPECT_LE(cache.bytes(), cache.budget());
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.roots(), (std::vector<NodeId>{0, 1, 2}));
  // A second insert for a cached root keeps the first tree.
  const BfsTree* first = cache.find(1);
  EXPECT_EQ(cache.insert(build_bfs_tree(net, 1, stats)), first);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(BroadcastProtocol, ReachesEveryNodeInHeightRounds) {
  const Graph g = gen::binary_tree(31);
  Network net(g, 11);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::vector<int> received(g.node_count(), 0);
  BroadcastProtocol broadcast(
      tree, Message{0, {42, 0, 0, 0}},
      [&](NodeId v, const Message& m) {
        EXPECT_EQ(m.f[0], 42u);
        ++received[v];
      });
  const RunStats bstats = net.run(broadcast);
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(received[v], 1);
  EXPECT_EQ(bstats.rounds, tree.height);  // one round per tree level
  EXPECT_EQ(bstats.messages, g.node_count() - 1);
}

TEST(ConvergecastSum, ComputesTotal) {
  Rng rng(5);
  const Graph g = gen::random_geometric(60, 0.25, rng);
  Network net(g, 13);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 3, stats);
  std::vector<std::uint64_t> values(g.node_count());
  std::iota(values.begin(), values.end(), 1);  // 1..n
  const std::uint64_t expected =
      g.node_count() * (g.node_count() + 1) / 2;
  ConvergecastSum sum(tree, values);
  const RunStats cstats = net.run(sum);
  EXPECT_EQ(sum.root_sum(), expected);
  EXPECT_LE(cstats.rounds, static_cast<std::uint64_t>(tree.height) + 1);
  EXPECT_EQ(cstats.messages, g.node_count() - 1);
}

TEST(ConvergecastSum, SingletonTreeNeedsNoRounds) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  ConvergecastSum sum(tree, {7, 5});
  net.run(sum);
  EXPECT_EQ(sum.root_sum(), 12u);
}

TEST(PipelinedVectorUpcast, SumsVectorsInHeightPlusKRounds) {
  const Graph g = gen::path(20);
  Network net(g, 17);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  const std::size_t k = 12;
  std::vector<std::vector<std::uint64_t>> values(
      g.node_count(), std::vector<std::uint64_t>(k));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::size_t i = 0; i < k; ++i) values[v][i] = v + i;
  }
  PipelinedVectorUpcast upcast(tree, values);
  const RunStats ustats = net.run(upcast);
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t expected = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) expected += v + i;
    EXPECT_EQ(upcast.root_vector()[i], expected) << "entry " << i;
  }
  // Pipelining: O(height + k), not O(height * k).
  EXPECT_LE(ustats.rounds, tree.height + k + 2);
  EXPECT_GE(ustats.rounds, std::max<std::uint64_t>(tree.height, k));
}

TEST(PipelinedVectorUpcast, RejectsRaggedInput) {
  const Graph g = gen::path(3);
  Network net(g, 1);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  std::vector<std::vector<std::uint64_t>> ragged{{1, 2}, {1}, {1, 2}};
  EXPECT_THROW(PipelinedVectorUpcast(tree, ragged), std::invalid_argument);
}

TEST(PipelinedListUpcast, CollectsEveryRecordAtRoot) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi_connected(30, 0.15, rng);
  Network net(g, 19);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 4, stats);
  std::vector<std::vector<PipelinedListUpcast::Record>> records(
      g.node_count());
  std::size_t total = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::uint64_t i = 0; i <= v % 3; ++i) {
      records[v].push_back({v, i, v + i});
      ++total;
    }
  }
  PipelinedListUpcast collect(tree, records);
  const RunStats cstats = net.run(collect);
  EXPECT_EQ(collect.root_records().size(), total);
  // Every record arrives intact (multiset equality via sorting).
  auto received = collect.root_records();
  std::vector<PipelinedListUpcast::Record> expected;
  for (const auto& list : records) {
    expected.insert(expected.end(), list.begin(), list.end());
  }
  std::sort(received.begin(), received.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(received, expected);
  // Pipelined: O(height + total records), not O(height * records).
  EXPECT_LE(cstats.rounds, tree.height + total + 2);
}

TEST(PipelinedListUpcast, EmptyRecordsQuiesceImmediately) {
  const Graph g = gen::path(6);
  Network net(g, 23);
  RunStats stats;
  const BfsTree tree = build_bfs_tree(net, 0, stats);
  PipelinedListUpcast collect(
      tree, std::vector<std::vector<PipelinedListUpcast::Record>>(
                g.node_count()));
  const RunStats cstats = net.run(collect);
  EXPECT_TRUE(collect.root_records().empty());
  EXPECT_EQ(cstats.rounds, 0u);
}

}  // namespace
}  // namespace drw::congest
