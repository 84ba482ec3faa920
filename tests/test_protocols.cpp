#include "core/protocols.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "congest/mux.hpp"
#include "congest/primitives.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "util/stats.hpp"
#include "walk_test_utils.hpp"

namespace drw::core {
namespace {

using congest::Network;
using congest::RunStats;

// Phase 1's plan: an entry per node, so without trajectories (generation
// base 0) node v's walks are generation v.
TEST(GetMoreWalks, PhaseOnePlanStoresEveryWalkWithItsLength) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi_connected(25, 0.2, rng);
  Network net(g, 11);
  WalkStore store(g.node_count());
  std::vector<TopUp> plan;
  std::size_t expected = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    plan.push_back(TopUp{v, g.degree(v)});
    expected += g.degree(v);
  }
  GetMoreWalksProtocol protocol(g, plan, 4, true, store, nullptr);
  net.run(protocol);
  std::size_t stored = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      EXPECT_FALSE(t.used);
      EXPECT_EQ(t.seq, t.source);
      EXPECT_GE(t.length, 4u);
      EXPECT_LE(t.length, 7u);
      ++stored;
    }
  }
  EXPECT_EQ(stored, expected);
}

TEST(GetMoreWalks, SingleTokenEndpointMatchesOracleDistribution) {
  // A single walk of fixed length l is a plain random walk; its endpoint
  // must be distributed as P^l e_s.
  const Graph g = gen::lollipop(4, 3);
  const MarkovOracle oracle(g);
  const std::uint32_t l = 6;
  const auto expected = oracle.distribution_after(0, l);

  std::vector<std::uint64_t> counts(g.node_count(), 0);
  for (int r = 0; r < 4000; ++r) {
    Network net(g, 1000 + r);
    WalkStore store(g.node_count());
    GetMoreWalksProtocol protocol(g, {{0, 1}}, l, false, store, nullptr);
    net.run(protocol);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!store.held[v].empty()) ++counts[v];
    }
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(GetMoreWalks, GenerationsCrossingOneEdgeSerialize) {
  // q one-token generations over a single edge pay one round each (Lemma
  // 2.1's congestion is emergent): only one generation's aggregate shares
  // a message, so rounds >= q.
  const Graph g = gen::path(2);
  Network net(g, 31);
  WalkStore store(g.node_count());
  const std::uint32_t q = 25;
  const std::vector<TopUp> plan(q, TopUp{0, 1});
  GetMoreWalksProtocol protocol(g, plan, 1, false, store, nullptr);
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(store.held[1].size(), q);
  EXPECT_GE(stats.rounds, q);
}

TEST(GetMoreWalks, StoresExactlyCountWalks) {
  Rng rng(7);
  const Graph g = gen::random_geometric(40, 0.3, rng);
  Network net(g, 17);
  WalkStore store(g.node_count());
  GetMoreWalksProtocol protocol(g, {{4, 30}}, 6, true, store, nullptr);
  net.run(protocol);
  std::size_t stored = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      EXPECT_EQ(t.source, 4u);
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
  GetMoreWalksProtocol protocol(g, {{0, 500}}, lambda, true, store,
                                nullptr);
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
    GetMoreWalksProtocol protocol(g, {{0, 100}}, lambda, true, store,
                                  nullptr);
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
  GetMoreWalksProtocol protocol(g, {{1, 40}}, 5, false, store, nullptr);
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

// Counts the messages each directed edge delivers while running `inner`.
class EdgeLoad final : public congest::Protocol {
 public:
  EdgeLoad(const Graph& g, congest::Protocol& inner) : inner_(&inner) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      delivered_.emplace_back(g.degree(v), 0);
    }
  }
  void on_round(congest::Context& ctx) override {
    for (const congest::Delivery& d : ctx.inbox()) {
      ++delivered_[ctx.self()][ctx.slot_of(d.from)];
    }
    inner_->on_round(ctx);
  }
  /// The run's congestion: the most messages one directed edge carried.
  std::uint64_t congestion() const {
    std::uint64_t most = 0;
    for (const auto& slots : delivered_) {
      for (const std::uint64_t count : slots) most = std::max(most, count);
    }
    return most;
  }

 private:
  congest::Protocol* inner_;
  std::vector<std::vector<std::uint64_t>> delivered_;
};

// One GET-MORE-WALKS run for several sources: each source's entry is its own
// generation and keeps the one-source law, although the sources' aggregates
// queue behind each other on shared edges.
//   * Every source receives exactly its count, all under its own
//     generation (a run that gave the sources one generation fails here).
//   * Each source's lengths are uniform in [lambda, 2*lambda - 1]
//     (chi-square per source, pooled over seeds).
//   * The run costs at most 2*lambda rounds plus its congestion C, the most
//     messages one directed edge carried: queueing adds to the dilation, it
//     does not multiply it. The sources here crowd a 16-node torus (several
//     generations share most edges), and the run still costs fewer rounds
//     than the one-source runs it replaces.
//   * A one-entry run is the one-source run, token for token (the list
//     below was recorded from the one-source protocol before it took a
//     list).
TEST(GetMoreWalks, MultiSourceRunKeepsEachSourcesLaw) {
  const Graph g = gen::torus(4, 4);
  const auto n = static_cast<NodeId>(g.node_count());
  constexpr std::uint32_t kLambda = 6;
  const std::vector<TopUp> topups = {{5, 12}, {6, 20}, {9, 7}, {10, 30},
                                     {6, 5}};
  std::vector<std::vector<std::uint64_t>> lengths(
      topups.size(), std::vector<std::uint64_t>(kLambda, 0));
  for (int seed = 0; seed < 400; ++seed) {
    Network net(g, 3000 + seed);
    WalkStore store(n);
    TrajectoryStore traj(n);
    traj.new_generations(3);  // earlier generations exist
    GetMoreWalksProtocol run(g, topups, kLambda, true, store, &traj);
    ASSERT_EQ(traj.next_generation, 3u + topups.size());
    EdgeLoad load(g, run);
    const RunStats stats = net.run(load);

    std::vector<std::uint64_t> received(topups.size(), 0);
    for (NodeId v = 0; v < n; ++v) {
      for (const HeldToken& t : store.held[v]) {
        ASSERT_GE(t.seq, 3u);
        const std::uint32_t entry = t.seq - 3;
        ASSERT_LT(entry, topups.size());
        ASSERT_EQ(t.source, topups[entry].source);
        ASSERT_GE(t.length, kLambda);
        ASSERT_LT(t.length, 2 * kLambda);
        ++received[entry];
        ++lengths[entry][t.length - kLambda];
      }
    }
    for (std::size_t i = 0; i < topups.size(); ++i) {
      ASSERT_EQ(received[i], topups[i].count) << "entry " << i;
    }

    EXPECT_LE(stats.rounds, 2 * kLambda + load.congestion())
        << "seed " << seed;
    std::uint64_t separate = 0;
    for (const TopUp& topup : topups) {
      Network alone(g, 3000 + seed);
      WalkStore own(n);
      GetMoreWalksProtocol single(g, {topup}, kLambda, true, own, nullptr);
      separate += alone.run(single).rounds;
    }
    EXPECT_LT(stats.rounds, separate) << "seed " << seed;
  }
  const std::vector<double> uniform(kLambda, 1.0 / kLambda);
  for (std::size_t i = 0; i < topups.size(); ++i) {
    const auto result = chi_square_test(lengths[i], uniform);
    EXPECT_GT(result.p_value, 1e-4)
        << "entry " << i << " chi2=" << result.statistic;
  }

  Network net(g, 31);
  WalkStore store(n);
  TrajectoryStore traj(n);
  traj.new_generations(3);
  GetMoreWalksProtocol one(g, {{5, 12}}, 4, true, store, &traj);
  const RunStats stats = net.run(one);
  EXPECT_EQ(stats.rounds, 7u);
  EXPECT_EQ(stats.messages, 45u);
  EXPECT_EQ(traj.gmw_record_count(), 62u);
  struct Token {
    NodeId holder;
    std::uint32_t length;
    std::uint32_t arrival_slot;
  };
  const Token expected[] = {{0, 4, 3},  {0, 6, 3},  {2, 6, 0},  {3, 7, 1},
                            {8, 4, 0},  {11, 5, 1}, {12, 5, 2}, {12, 7, 0},
                            {13, 4, 0}, {13, 4, 0}, {13, 4, 2}, {13, 6, 1}};
  std::size_t next = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const HeldToken& t : store.held[v]) {
      ASSERT_LT(next, std::size(expected));
      EXPECT_EQ(t.seq, 3u);
      EXPECT_EQ(v, expected[next].holder) << "token " << next;
      EXPECT_EQ(t.length, expected[next].length) << "token " << next;
      EXPECT_EQ(t.arrival_slot, expected[next].arrival_slot)
          << "token " << next;
      ++next;
    }
  }
  EXPECT_EQ(next, std::size(expected));
}

// Phase 1 and two GET-MORE-WALKS runs record into one TrajectoryStore.
// Phase 1 takes one generation per node (ids 0..n-1; every third node has
// walks) and the runs take n and n+1. Phase-1 generations queue and the
// runs, as lanes of one mux, interleave their records at shared nodes, so
// records arrive out of (gen, hop) order and the first lookup at a node
// sorts them once. Every token of all three replays backward to its own
// source along graph edges, spending each record it passes once, and
// freeing covers every generation.
TEST(GetMoreWalks, InterleavedGenerationsReplayToTheirSources) {
  const Graph g = gen::torus(4, 4);
  const auto n = static_cast<NodeId>(g.node_count());
  Network net(g, 21);
  WalkStore store(n);
  TrajectoryStore traj(n);
  std::vector<TopUp> plan;
  std::vector<std::uint8_t> expected_live(n + 2, 0);
  std::size_t phase1_walks = 0;
  for (NodeId v = 0; v < n; ++v) {
    plan.push_back(TopUp{v, v % 3 == 0 ? 3u : 0u});
    expected_live[v] = v % 3 == 0 ? 1 : 0;
    phase1_walks += plan.back().count;
  }
  GetMoreWalksProtocol phase1(g, plan, 5, true, store, &traj);
  net.run(phase1);
  EXPECT_EQ(traj.next_generation, n);
  GetMoreWalksProtocol first(g, {{0, 12}}, 5, true, store, &traj);
  GetMoreWalksProtocol second(g, {{5, 12}}, 5, true, store, &traj);
  EXPECT_EQ(traj.next_generation, n + 2);
  expected_live[n] = expected_live[n + 1] = 1;
  NodeStreams first_rngs =
      congest::ProtocolMux::derive_lane_rngs(net.seed(), 1, n);
  NodeStreams second_rngs =
      congest::ProtocolMux::derive_lane_rngs(net.seed(), 2, n);
  congest::ProtocolMux mux(n);
  mux.add_lane(first, &first_rngs);
  mux.add_lane(second, &second_rngs);
  net.run_multiplexed(mux, 2);
  EXPECT_NE(std::count(traj.gmw_unsorted.begin(), traj.gmw_unsorted.end(), 1),
            0);

  std::vector<RegenerateProtocol::Job> jobs;
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; ++v) {
    for (const HeldToken& t : store.held[v]) {
      if (t.seq < n) {
        EXPECT_EQ(t.seq, t.source);  // Phase 1: generation base 0
      } else {
        EXPECT_EQ(t.seq, t.source == 0 ? n : n + 1);
      }
      jobs.push_back(RegenerateProtocol::Job{
          v, t.seq, t.length, t.arrival_slot, 0,
          static_cast<std::uint32_t>(jobs.size())});
      sources.push_back(t.source);
    }
  }
  ASSERT_EQ(jobs.size(), phase1_walks + 24);
  PositionTable positions(n);
  RegenerateProtocol regen(g, jobs, traj, positions, 77);
  net.run(regen);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // A replay stops at the source without recording step 0 (the stitch
    // records it as the previous segment's end).
    positions[sources[j]].push_back(WalkPosition{jobs[j].walk_id, 0});
    test::expect_valid_walk(g, positions, jobs[j].walk_id, jobs[j].length,
                            sources[j], jobs[j].holder);
  }
  // The replay stops on reaching the source, so only hop-0 records stay.
  for (const auto& records : traj.gmw) {
    for (const GmwRecord& r : records) {
      EXPECT_EQ(r.next_slot == TrajectoryStore::kSpentSlot, r.hop > 0);
    }
  }
  const std::vector<std::uint8_t> live =
      store.live_generations(traj.next_generation);
  EXPECT_EQ(live, expected_live);
  // Freeing keeps the live generations' unspent records (one hop-0 record
  // per token) and drops the rest once no generation is held.
  const std::uint64_t stored = traj.gmw_record_count();
  EXPECT_EQ(traj.drop_spent(live), stored - jobs.size());
  EXPECT_EQ(traj.records_kept, jobs.size());
  EXPECT_EQ(traj.drop_spent({}), jobs.size());
  EXPECT_EQ(traj.gmw_record_count(), 0u);
}

// The records' radix sort gives std::stable_sort's order past the start it
// is given: ties keep their arrival order (prev_slot numbers the records),
// and keys of one, two and three bytes take one pass per byte.
TEST(TrajectoryStore, StableSortFromMatchesStableSort) {
  Rng rng(41);
  // (generations, hops): keys below 2^8, 2^16 and 2^24.
  const std::pair<std::uint32_t, std::uint32_t> ranges[] = {
      {3, 20}, {40, 30}, {5000, 2000}};
  for (const auto& [gens, hops] : ranges) {
    std::vector<GmwRecord> records;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      records.push_back(GmwRecord{
          70000 + static_cast<std::uint32_t>(rng.next_below(gens)),
          static_cast<std::uint32_t>(rng.next_below(hops)), i, 0});
    }
    std::vector<GmwRecord> expected = records;
    std::stable_sort(expected.begin() + 100, expected.end());
    TrajectoryStore::stable_sort_from(records, 100);
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].gen, expected[i].gen) << i;
      ASSERT_EQ(records[i].hop, expected[i].hop) << i;
      ASSERT_EQ(records[i].prev_slot, expected[i].prev_slot) << i;
    }
  }
}

// The replay is exact per token, not only pooled over tokens. One uniformly
// chosen token of a 30-token generation -- a GET-MORE-WALKS run, a
// GET-MORE-WALKS run that also tops up two neighbouring sources (their
// generations' aggregates share edges and queue), or source 0's entry of a
// Phase-1 plan (an entry per node) -- is replayed alone, and its position at
// hop t must follow
// P^t(source, .) for every t < lambda. Taking the first
// matching record instead of a uniform one favours the predecessors whose
// tokens arrived first (low ids) and fails on all three graphs. Seeds are
// fixed; a Holm step-down over every (run, graph, hop) cell keeps the
// family-wise false-alarm rate at 1e-3.
TEST(Regenerate, OneTokenOfAGenerationReplaysAnExactPath) {
  constexpr std::uint32_t kLambda = 5;
  constexpr std::uint32_t kTokens = 30;
  constexpr int kSeeds = 6000;
  struct Case {
    const char* name;
    Graph g;
  };
  Rng graph_rng(16);
  std::vector<Case> cases;
  cases.push_back({"regular", gen::random_regular(16, 3, graph_rng)});
  cases.push_back({"lollipop", gen::lollipop(5, 4)});
  cases.push_back({"grid", gen::grid(4, 4)});

  std::vector<double> p_values;
  std::vector<std::string> labels;
  enum class Run { kGmw, kMultiSource, kPhase1 };
  const std::pair<Run, const char*> runs[] = {
      {Run::kGmw, "gmw"}, {Run::kMultiSource, "multi"},
      {Run::kPhase1, "phase1"}};
  for (const auto& [run_kind, run_name] : runs) {
    for (const Case& c : cases) {
      const std::size_t n = c.g.node_count();
      std::vector<std::vector<std::uint64_t>> counts(
          kLambda, std::vector<std::uint64_t>(n, 0));
      // One network per graph: its node streams run on from seed to seed.
      Network net(c.g, 9000);
      for (int seed = 0; seed < kSeeds; ++seed) {
        WalkStore store(n);
        TrajectoryStore traj(n);
        if (run_kind == Run::kPhase1) {
          // The engine's plan: an entry per node, deg(v) walks each, but
          // kTokens from source 0.
          std::vector<TopUp> plan;
          for (NodeId v = 0; v < n; ++v) {
            plan.push_back(TopUp{v, v == 0 ? kTokens : c.g.degree(v)});
          }
          GetMoreWalksProtocol run(c.g, plan, kLambda, true, store, &traj);
          net.run(run);
        } else if (run_kind == Run::kMultiSource) {
          // Source 0's generation is the middle one of three.
          GetMoreWalksProtocol run(
              c.g, {{1, kTokens}, {0, kTokens}, {2, kTokens}}, kLambda, true,
              store, &traj);
          net.run(run);
        } else {
          GetMoreWalksProtocol run(c.g, {{0, kTokens}}, kLambda, true, store,
                                   &traj);
          net.run(run);
        }
        std::vector<RegenerateProtocol::Job> tokens;  // source 0's
        for (NodeId v = 0; v < n; ++v) {
          for (const HeldToken& t : store.held[v]) {
            if (t.source != 0) continue;
            tokens.push_back(RegenerateProtocol::Job{
                v, t.seq, t.length, t.arrival_slot, 0, 0});
          }
        }
        ASSERT_EQ(tokens.size(), kTokens);
        Rng pick_rng(static_cast<std::uint64_t>(seed));
        const RegenerateProtocol::Job job =
            tokens[pick_rng.next_below(kTokens)];
        PositionTable positions(n);
        RegenerateProtocol regen(c.g, {job}, traj, positions,
                                 static_cast<std::uint64_t>(seed));
        net.run(regen);
        for (NodeId v = 0; v < n; ++v) {
          for (const WalkPosition& p : positions[v]) {
            if (p.step < kLambda) ++counts[p.step][v];
          }
        }
      }
      const MarkovOracle oracle(c.g);
      for (std::uint32_t t = 1; t < kLambda; ++t) {
        p_values.push_back(
            chi_square_test(counts[t], oracle.distribution_after(0, t))
                .p_value);
        labels.push_back(std::string(run_name) + " " + c.name + " t=" +
                         std::to_string(t));
      }
    }
  }
  std::vector<std::size_t> order(p_values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p_values[a] < p_values[b];
  });
  constexpr double kAlpha = 1e-3;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t cell = order[k];
    if (p_values[cell] > kAlpha / static_cast<double>(order.size() - k)) {
      break;
    }
    ADD_FAILURE() << labels[cell] << ": p=" << p_values[cell]
                  << " rejected under Holm at " << kAlpha;
  }
  for (std::size_t cell = 0; cell < p_values.size(); ++cell) {
    std::printf("  %-18s p=%.3g\n", labels[cell].c_str(), p_values[cell]);
  }
}

TEST(SampleConvergecast, FindsTheOnlyToken) {
  const Graph g = gen::grid(3, 3);
  Network net(g, 29);
  WalkStore store(g.node_count());
  store.held[7].push_back(HeldToken{2, 9, 6, 0, false});
  RunStats stats;
  const congest::BfsTree tree = congest::build_bfs_tree(net, 2, stats);
  SampleConvergecast sample(tree, store, 2,
                            SampleConvergecast::Sweep::kFirst);
  net.run(sample);
  EXPECT_EQ(sample.result().count, 1u);
  EXPECT_EQ(sample.result().holder, 7u);
  EXPECT_EQ(sample.result().length, 6u);
  EXPECT_EQ(sample.result().seq, 9u);
}

TEST(SampleConvergecast, IgnoresUsedAndForeignTokens) {
  const Graph g = gen::grid(3, 3);
  Network net(g, 31);
  WalkStore store(g.node_count());
  store.held[4].push_back(HeldToken{2, 0, 6, 0, true});
  store.held[5].push_back(HeldToken{3, 0, 6, 0, false});
  RunStats stats;
  const congest::BfsTree tree = congest::build_bfs_tree(net, 2, stats);
  SampleConvergecast sample(tree, store, 2,
                            SampleConvergecast::Sweep::kFirst);
  net.run(sample);
  EXPECT_EQ(sample.result().count, 0u);  // NULL: GET-MORE-WALKS needed
}

TEST(SampleConvergecast, UniformOverAllUnusedTokens) {
  // Lemma A.2: every unused token is returned with probability 1/t.
  const Graph g = gen::path(5);
  WalkStore store(g.node_count());
  // 6 tokens from source 0 spread over nodes 1, 3, 4.
  store.held[1].push_back(HeldToken{0, 0, 4, 0, false});
  store.held[1].push_back(HeldToken{0, 1, 4, 0, false});
  store.held[3].push_back(HeldToken{0, 2, 4, 0, false});
  store.held[3].push_back(HeldToken{0, 3, 4, 0, false});
  store.held[3].push_back(HeldToken{0, 4, 4, 0, false});
  store.held[4].push_back(HeldToken{0, 5, 4, 0, false});

  std::vector<std::uint64_t> counts(6, 0);
  const int runs = 6000;
  for (int r = 0; r < runs; ++r) {
    Network net(g, 500 + r);
    RunStats stats;
    const congest::BfsTree tree = congest::build_bfs_tree(net, 0, stats);
    SampleConvergecast sample(tree, store, 0,
                              SampleConvergecast::Sweep::kFirst);
    net.run(sample);
    ASSERT_EQ(sample.result().count, 6u);
    ++counts[sample.result().seq];
  }
  const std::vector<double> expected(6, 1.0 / 6.0);
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

// Sweep 2 on a tree swept before: silence carries the count-0 report. From
// every root of a star, a lollipop, a grid and a random regular graph, with
// the root's tokens spread over several holders (the root among them) next
// to foreign and already-used ones, the silent sweep must make the first
// sweep's draws -- same candidate, same path down to the holder -- in the
// same `height` rounds, while only the non-root nodes whose subtree holds
// an unused root token send.
TEST(SampleConvergecast, SilentSweepSendsOnlyFromHolderSubtrees) {
  Rng graph_rng(19);
  const std::vector<Graph> graphs = {gen::star(9), gen::lollipop(5, 5),
                                     gen::grid(4, 4),
                                     gen::random_regular(64, 4, graph_rng)};
  using Sweep = SampleConvergecast::Sweep;
  for (const Graph& g : graphs) {
    const auto n = static_cast<NodeId>(g.node_count());
    Network net(g, 47);
    for (NodeId root = 0; root < n; ++root) {
      RunStats build;
      const congest::BfsTree tree = congest::build_bfs_tree(net, root, build);
      WalkStore store(n);
      WalkStore drained(n);
      std::uint64_t unused = 0;
      std::vector<std::uint8_t> reports(n, 0);
      for (NodeId v = 0; v < n; ++v) {
        const HeldToken foreign{(root + 1) % n, 0, 4, 0, false};
        const HeldToken used{root, 0, 4, 0, true};
        store.held[v].push_back(foreign);
        drained.held[v].push_back(foreign);
        if ((v + root) % 4 == 1) {
          store.held[v].push_back(used);
          drained.held[v].push_back(used);
        }
        if (v != root && (v * 7 + root) % 5 != 0) continue;
        for (std::uint32_t i = 0; i < 1 + v % 3; ++i) {
          store.held[v].push_back(
              HeldToken{root, i, 4 + i, 0, false});
          ++unused;
        }
        for (NodeId u = v; u != root && reports[u] == 0; u = tree.parent[u]) {
          reports[u] = 1;
        }
      }
      const auto expected_messages = static_cast<std::uint64_t>(
          std::count(reports.begin(), reports.end(), 1));

      const NodeStreams streams =
          congest::ProtocolMux::derive_lane_rngs(91, root, n);
      NodeStreams first_streams = streams;
      NodeStreams silent_streams = streams;
      SampleConvergecast first(tree, store, root, Sweep::kFirst);
      const RunStats first_stats = net.run(first, first_streams);
      SampleConvergecast silent(tree, store, root, Sweep::kSilent);
      const RunStats silent_stats = net.run(silent, silent_streams);

      const SampleConvergecast::Candidate a = first.result();
      const SampleConvergecast::Candidate b = silent.result();
      ASSERT_EQ(a.count, unused) << "root " << root;
      EXPECT_EQ(b.count, a.count) << "root " << root;
      EXPECT_EQ(b.holder, a.holder) << "root " << root;
      EXPECT_EQ(b.held_index, a.held_index) << "root " << root;
      EXPECT_EQ(b.seq, a.seq) << "root " << root;
      EXPECT_EQ(b.length, a.length) << "root " << root;
      EXPECT_EQ(first_stats.rounds, tree.height) << "root " << root;
      EXPECT_EQ(silent_stats.rounds, tree.height) << "root " << root;
      EXPECT_EQ(first_stats.messages, n - 1u) << "root " << root;
      EXPECT_EQ(silent_stats.messages, expected_messages) << "root " << root;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(first_streams[v](), silent_streams[v]())
            << "root " << root << ": node " << v << " drew differently";
      }
      const std::vector<NodeId> first_via = first.take_path();
      const std::vector<NodeId> silent_via = silent.take_path();
      NodeId u = root;
      for (std::uint32_t hop = 0; first_via[u] != u; ++hop) {
        ASSERT_LE(hop, tree.height) << "root " << root;
        ASSERT_EQ(silent_via[u], first_via[u]) << "root " << root;
        u = first_via[u];
      }
      EXPECT_EQ(silent_via[u], u) << "root " << root;
      EXPECT_EQ(u, a.holder) << "root " << root;

      SampleConvergecast empty(tree, drained, root, Sweep::kSilent);
      const RunStats empty_stats = net.run(empty);
      EXPECT_EQ(empty.result().count, 0u) << "root " << root;
      EXPECT_EQ(empty_stats.messages, 0u) << "root " << root;
      EXPECT_EQ(empty_stats.rounds, tree.height) << "root " << root;
    }
  }
}

// Sweep 3: the commit walks the sampled candidate's recorded path down the
// tree, flips exactly the sampled token to used and costs depth(holder)
// messages and rounds. Every root of a star, a lollipop, a grid and a random
// regular graph, with its tokens spread over several holders (the root
// among them) next to foreign and already-used ones, is drained one
// sample-and-commit at a time.
TEST(SampleCommit, FlipsOnlyTheSampledTokenInDepthMessages) {
  Rng graph_rng(17);
  const std::vector<Graph> graphs = {gen::star(9), gen::lollipop(5, 5),
                                     gen::grid(4, 4),
                                     gen::random_regular(64, 4, graph_rng)};
  const auto used_flags = [](const WalkStore& store) {
    std::vector<std::vector<bool>> flags(store.held.size());
    for (std::size_t v = 0; v < store.held.size(); ++v) {
      for (const HeldToken& t : store.held[v]) flags[v].push_back(t.used);
    }
    return flags;
  };
  for (const Graph& g : graphs) {
    const auto n = static_cast<NodeId>(g.node_count());
    Network net(g, 43);
    for (NodeId root = 0; root < n; ++root) {
      WalkStore store(n);
      std::uint64_t unused = 0;
      for (NodeId v = 0; v < n; ++v) {
        store.held[v].push_back(
            HeldToken{(root + 1) % n, 0, 4, 0, false});
        if (v != root && (v + root) % 3 != 0) continue;
        store.held[v].push_back(
            HeldToken{root, 0, 4, 0, true});
        for (std::uint32_t i = 0; i < 1 + v % 2; ++i) {
          store.held[v].push_back(
              HeldToken{root, i, 4, 0, false});
          ++unused;
        }
      }
      RunStats build;
      const congest::BfsTree tree = congest::build_bfs_tree(net, root, build);
      bool root_held = false;
      for (; unused > 0; --unused) {
        SampleConvergecast sample(tree, store, root,
                                  SampleConvergecast::Sweep::kSilent);
        net.run(sample);
        const SampleConvergecast::Candidate sampled = sample.result();
        ASSERT_EQ(sampled.count, unused);
        auto expected = used_flags(store);
        expected[sampled.holder][sampled.held_index] = true;
        SampleCommit commit(root, sample.take_path(), store, sampled);
        const RunStats stats = net.run(commit);
        ASSERT_EQ(used_flags(store), expected)
            << "root " << root << " holder " << sampled.holder;
        EXPECT_EQ(stats.messages, tree.depth[sampled.holder]);
        EXPECT_EQ(stats.rounds, tree.depth[sampled.holder]);
        if (sampled.holder == root) {
          root_held = true;
          EXPECT_EQ(stats.messages, 0u);
        }
      }
      SampleConvergecast drained(tree, store, root,
                                 SampleConvergecast::Sweep::kSilent);
      net.run(drained);
      EXPECT_EQ(drained.result().count, 0u);
      EXPECT_TRUE(root_held) << "root " << root;
    }
  }
}

// ------------------------------------------------------ round-0 start sets

/// Runs a protocol with the default round-0 start set, every node: the
/// reference the protocol's own, smaller set must reproduce.
class DefaultStart final : public congest::Protocol {
 public:
  explicit DefaultStart(congest::Protocol& inner) : inner_(&inner) {}
  void on_run_start(unsigned workers) override {
    inner_->on_run_start(workers);
  }
  void on_round(congest::Context& ctx) override { inner_->on_round(ctx); }
  bool done() const override { return inner_->done(); }

 private:
  congest::Protocol* inner_;
};

/// What the stitch protocols write: the short-walk store, the routing
/// records and the positions.
struct World {
  explicit World(std::size_t n) : store(n), traj(n), positions(n) {}
  WalkStore store;
  TrajectoryStore traj;
  PositionTable positions;
};

using Digest = std::vector<std::uint64_t>;

void append_world(const World& w, Digest& out) {
  for (NodeId v = 0; v < w.store.held.size(); ++v) {
    out.push_back(0xa11ce000u + v);
    for (const HeldToken& t : w.store.held[v]) {
      out.insert(out.end(), {t.source, t.seq, t.length, t.arrival_slot,
                             std::uint64_t{t.used}});
    }
    for (const GmwRecord& r : w.traj.gmw[v]) {
      out.insert(out.end(), {r.gen, r.hop, r.prev_slot, r.next_slot});
    }
    for (const WalkPosition& p : w.positions[v]) {
      out.insert(out.end(), {p.walk, p.step});
    }
  }
}

/// One protocol under test, built on a World; `outputs` appends the
/// results it keeps itself (destinations, candidate, path, tree).
struct Built {
  std::shared_ptr<congest::Protocol> protocol;
  std::function<void(Digest&)> outputs;
};
using Factory = std::function<Built(World&)>;

/// A 64-node graph whose store, records and trees every case starts from:
/// six Phase-1 walks from each node, with trajectories.
struct StartSetFixture {
  static constexpr std::uint32_t kLambda = 4;
  Graph g;
  World base;
  std::vector<congest::BfsTree> trees;  ///< rooted at kRoots

  static constexpr std::array<NodeId, 3> kRoots = {3, 10, 21};
  static Graph make_graph() {
    Rng rng(29);
    return gen::random_regular(64, 4, rng);
  }
  StartSetFixture() : g(make_graph()), base(g.node_count()) {
    Network net(g, 5);
    std::vector<TopUp> plan;
    for (NodeId v = 0; v < g.node_count(); ++v) plan.push_back(TopUp{v, 6});
    GetMoreWalksProtocol phase1(g, plan, kLambda, true, base.store,
                                &base.traj);
    net.run(phase1);
    for (const NodeId root : kRoots) {
      RunStats build;
      trees.push_back(congest::build_bfs_tree(net, root, build));
    }
  }
  const congest::BfsTree& tree(NodeId root) const {
    return trees[static_cast<std::size_t>(
        std::find(kRoots.begin(), kRoots.end(), root) - kRoots.begin())];
  }

  /// Replays of the unused tokens whose generation is `residue` mod 3.
  static std::vector<RegenerateProtocol::Job> replays(const World& w,
                                                      std::uint32_t residue,
                                                      std::uint32_t walk_id) {
    std::vector<RegenerateProtocol::Job> jobs;
    for (NodeId v = 0; v < w.store.held.size(); ++v) {
      for (const HeldToken& t : w.store.held[v]) {
        if (t.used || t.seq % 3 != residue) continue;
        jobs.push_back(RegenerateProtocol::Job{v, t.seq, t.length,
                                               t.arrival_slot, 0, walk_id++});
      }
    }
    return jobs;
  }
  static std::vector<NaiveSegmentProtocol::Job> tails(std::uint32_t walk_id) {
    return {{5, 30, walk_id, 100, true, true},
            {5, 12, walk_id + 1, 7, false, true},
            {60, 0, walk_id + 2, 3, true, true},
            {33, 25, walk_id + 3, 0, true, false}};
  }

  std::map<std::string, Factory> cases() const {
    std::map<std::string, Factory> out;
    out["bfs"] = [this](World&) {
      auto p = std::make_shared<congest::BfsTreeProtocol>(g, 7);
      return Built{p, [p](Digest& d) {
                     const congest::BfsTree t = p->take_tree();
                     d.insert(d.end(), t.parent.begin(), t.parent.end());
                     d.insert(d.end(), t.subtree_height.begin(),
                              t.subtree_height.end());
                   }};
    };
    out["broadcast"] = [this](World&) {
      auto got = std::make_shared<Digest>(g.node_count(), 0);
      auto p = std::make_shared<congest::BroadcastProtocol>(
          tree(3), congest::Message{0, {9, 0, 0, 0}},
          [got](NodeId v, const congest::Message& m) { (*got)[v] += m.f[0]; });
      return Built{p, [got](Digest& d) {
                     d.insert(d.end(), got->begin(), got->end());
                   }};
    };
    out["get-more-walks"] = [this](World& w) {
      auto p = std::make_shared<GetMoreWalksProtocol>(
          g, std::vector<TopUp>{{40, 9}, {11, 0}, {3, 5}, {40, 2}}, kLambda,
          true, w.store, &w.traj);
      return Built{p, [](Digest&) {}};
    };
    out["silent-sweep"] = [this](World& w) {
      auto p = std::make_shared<SampleConvergecast>(
          tree(10), w.store, 10, SampleConvergecast::Sweep::kSilent);
      return Built{p, [p](Digest& d) {
                     const SampleConvergecast::Candidate c = p->result();
                     d.insert(d.end(), {c.holder, c.count, c.length, c.seq,
                                        c.held_index});
                     const std::vector<NodeId> via = p->take_path();
                     for (NodeId u = 10; via[u] != u; u = via[u]) {
                       d.push_back(via[u]);
                     }
                   }};
    };
    out["commit"] = [this](World& w) {
      Network scratch(g, 99);
      SampleConvergecast sample(tree(21), w.store, 21,
                                SampleConvergecast::Sweep::kFirst);
      scratch.run(sample);
      auto p = std::make_shared<SampleCommit>(21, sample.take_path(), w.store,
                                              sample.result());
      return Built{p, [](Digest&) {}};
    };
    out["naive"] = [this](World& w) {
      auto p = std::make_shared<NaiveSegmentProtocol>(g, tails(100),
                                                      &w.positions);
      return Built{p, [p](Digest& d) {
                     d.insert(d.end(), p->destinations().begin(),
                              p->destinations().end());
                   }};
    };
    out["regenerate"] = [this](World& w) {
      auto p = std::make_shared<RegenerateProtocol>(g, replays(w, 0, 200),
                                                    w.traj, w.positions, 77);
      return Built{p, [](Digest&) {}};
    };
    out["finish"] = [this](World& w) {
      auto naive = std::make_shared<NaiveSegmentProtocol>(g, tails(300),
                                                          &w.positions);
      auto regen = std::make_shared<RegenerateProtocol>(
          g, replays(w, 1, 400), w.traj, w.positions, 78);
      auto p = std::make_shared<FinishProtocol>(*naive, *regen);
      return Built{p, [naive, regen](Digest& d) {
                     d.insert(d.end(), naive->destinations().begin(),
                              naive->destinations().end());
                   }};
    };
    return out;
  }
};

/// One run's observable outcome.
struct StartSetOutcome {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t node_steps = 0;
  Digest results;  ///< protocol outputs, then the World
  Digest draws;    ///< every stream's next draw after the run

  friend bool operator==(const StartSetOutcome& a, const StartSetOutcome& b) {
    return a.rounds == b.rounds && a.messages == b.messages &&
           a.results == b.results && a.draws == b.draws;
  }
};

/// Runs `lanes` on a copy of the fixture's world: one lane solo on the
/// network's own streams, several as lanes of one mux on their own streams.
/// `wrapped` runs each inside DefaultStart.
StartSetOutcome run_start_set_case(const StartSetFixture& f,
                                   const std::vector<Factory>& lanes,
                                   unsigned threads, bool wrapped) {
  const std::size_t n = f.g.node_count();
  World w = f.base;
  Network net(f.g, 17);
  net.set_threads(threads);
  std::vector<Built> built;
  for (const Factory& make : lanes) built.push_back(make(w));
  std::vector<std::unique_ptr<DefaultStart>> wrappers;
  std::vector<congest::Protocol*> run;
  for (const Built& b : built) {
    run.push_back(b.protocol.get());
    if (wrapped) {
      wrappers.push_back(std::make_unique<DefaultStart>(*b.protocol));
      run.back() = wrappers.back().get();
    }
  }
  StartSetOutcome out;
  std::vector<NodeStreams> streams;
  if (run.size() == 1) {
    const RunStats stats = net.run(*run[0]);
    out.rounds = stats.rounds;
    out.messages = stats.messages;
  } else {
    congest::ProtocolMux mux(n);
    streams.reserve(run.size());
    for (std::size_t l = 0; l < run.size(); ++l) {
      streams.push_back(
          congest::ProtocolMux::derive_lane_rngs(net.seed(), l, n));
      mux.add_lane(*run[l], &streams.back());
    }
    const RunStats stats =
        net.run_multiplexed(mux, static_cast<unsigned>(run.size()));
    out.rounds = stats.rounds;
    out.messages = stats.messages;
    for (unsigned l = 0; l < run.size(); ++l) {
      out.results.push_back(mux.lane_stats(l).rounds);
      out.results.push_back(mux.lane_stats(l).messages);
    }
  }
  out.node_steps = net.last_node_steps();
  for (const Built& b : built) b.outputs(out.results);
  append_world(w, out.results);
  for (NodeId v = 0; v < n; ++v) out.draws.push_back(net.node_rng(v)());
  for (NodeStreams& lane : streams) {
    for (NodeId v = 0; v < n; ++v) out.draws.push_back(lane[v]());
  }
  return out;
}

// The start-set contract: every protocol that names a round-0 start set
// behaves exactly as with the default set (every node) -- same
// destinations, held tokens, routing records, positions, rounds, messages
// and next draws of every stream -- solo and as lanes of a 4-lane mux, at
// 1 and 4 threads, while running fewer node steps.
TEST(StartSets, MatchTheDefaultSetSoloAndAsMuxLanes) {
  const StartSetFixture f;
  const std::map<std::string, Factory> cases = f.cases();
  const std::vector<std::vector<std::string>> groups = {
      {"bfs"}, {"broadcast"}, {"get-more-walks"}, {"silent-sweep"},
      {"commit"}, {"naive"}, {"regenerate"}, {"finish"},
      {"get-more-walks", "bfs", "silent-sweep", "commit"},
      {"naive", "regenerate", "broadcast", "finish"}};
  for (const unsigned threads : {1u, 4u}) {
    for (const std::vector<std::string>& group : groups) {
      std::string name;
      std::vector<Factory> lanes;
      for (const std::string& lane : group) {
        name += lane + " ";
        lanes.push_back(cases.at(lane));
      }
      SCOPED_TRACE(name + "at threads " + std::to_string(threads));
      const StartSetOutcome own = run_start_set_case(f, lanes, threads, false);
      const StartSetOutcome every =
          run_start_set_case(f, lanes, threads, true);
      EXPECT_TRUE(own == every);
      EXPECT_GT(own.rounds, 0u);
      EXPECT_LT(own.node_steps, every.node_steps);
    }
  }
}

// ------------------------------------------------------------ holder list

/// The nodes holding an unused source-`source` token that holders_of()
/// does not list, over every source.
std::uint64_t unlisted_holders(const WalkStore& store) {
  std::uint64_t missing = 0;
  for (NodeId v = 0; v < store.held.size(); ++v) {
    for (const HeldToken& t : store.held[v]) {
      if (t.used) continue;
      const std::span<const NodeId> listed = store.holders_of(t.source);
      missing += !std::binary_search(listed.begin(), listed.end(), v);
    }
  }
  return missing;
}

std::uint64_t held_total(const WalkStore& store) {
  std::uint64_t total = 0;
  for (const auto& tokens : store.held) total += tokens.size();
  return total;
}

Params scarce_params() {
  Params params;
  params.lambda_override = 3;
  params.eta = 0.25;
  return params;
}

// WalkStore::holders_of rescans only when the held lists changed. It must
// list every holder a scan finds after a GET-MORE-WALKS run, after
// compact_store -- also when a top-up brings the held total back to what
// it was before the compaction -- and after a warm restart adopts a
// released store.
TEST(HolderList, ListsEveryHolderAfterTopUpsCompactionAndRestart) {
  Rng graph_rng(31);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  Network net(g, 23);
  StitchEngine engine(net, scarce_params(), diameter);
  engine.prepare(4, 60);
  EXPECT_EQ(unlisted_holders(engine.store()), 0u) << "after Phase 1";
  engine.replenish({{5, 20}, {9, 3}});
  EXPECT_EQ(unlisted_holders(engine.store()), 0u)
      << "after a GET-MORE-WALKS run";

  for (std::uint32_t i = 0; i < 6; ++i) {
    engine.walk_deferring_tail(static_cast<NodeId>(i * 7), 60, i);
  }
  engine.run_deferred();
  EXPECT_EQ(unlisted_holders(engine.store()), 0u) << "after walks";
  // No lookup between the compaction and the top-up: the lists were last
  // scanned at the total the top-up restores, so only the compaction count
  // tells them apart.
  const std::uint64_t before = held_total(engine.store());
  engine.compact_store();
  const std::uint64_t dropped = before - held_total(engine.store());
  ASSERT_GT(dropped, 0u);
  engine.replenish({{17, static_cast<std::uint32_t>(dropped)}});
  ASSERT_EQ(held_total(engine.store()), before);
  EXPECT_EQ(unlisted_holders(engine.store()), 0u)
      << "after compact_store and a top-up back to the old total";

  StitchEngine::EngineState state = engine.release_state();
  StitchEngine restarted(net, scarce_params(), diameter);
  restarted.prepare(4, 60);
  EXPECT_EQ(unlisted_holders(restarted.store()), 0u) << "before adopt_state";
  restarted.adopt_state(std::move(state));
  EXPECT_EQ(unlisted_holders(restarted.store()), 0u) << "after adopt_state";
  restarted.replenish({{30, 12}});
  EXPECT_EQ(unlisted_holders(restarted.store()), 0u)
      << "after a top-up of the adopted store";
}

/// A WalkTask's traversal as a mux lane that checks, when a silent sweep's
/// run starts, that its start set names every node then holding an unused
/// token of the sampled source.
class CheckedSweepLane final : public congest::Protocol {
 public:
  struct Tally {
    std::uint64_t sweeps = 0;
    std::uint64_t after_top_up = 0;  ///< at a connector a top-up ran at
    std::uint64_t missing = 0;
    std::vector<std::uint8_t> topped_up;  ///< by connector
  };
  CheckedSweepLane(StitchEngine::WalkTask& task, const WalkStore& store,
                   Tally& tally)
      : inner_(&task.protocol()), source_(task.connector()), store_(&store),
        tally_(&tally) {}
  std::span<const NodeId> start_nodes(std::span<const NodeId> all) override {
    const std::span<const NodeId> set = inner_->start_nodes(all);
    if (dynamic_cast<SampleConvergecast*>(inner_) != nullptr &&
        set.size() < all.size()) {
      ++tally_->sweeps;
      tally_->after_top_up += tally_->topped_up[source_];
      for (NodeId v = 0; v < store_->held.size(); ++v) {
        for (const HeldToken& t : store_->held[v]) {
          if (t.used || t.source != source_) continue;
          tally_->missing += !std::binary_search(set.begin(), set.end(), v);
          break;
        }
      }
    }
    return set;
  }
  void on_run_start(unsigned workers) override {
    inner_->on_run_start(workers);
  }
  void on_round(congest::Context& ctx) override { inner_->on_round(ctx); }
  bool done() const override { return inner_->done(); }

 private:
  congest::Protocol* inner_;
  NodeId source_;
  const WalkStore* store_;
  Tally* tally_;
};

// Walks stitched four lanes a wave on a scarce store: in-walk
// GET-MORE-WALKS lanes add tokens at their connectors, and the next wave
// resamples there with a silent sweep, whose start set must already hold
// the new tokens' holders.
TEST(HolderList, SilentSweepAfterAMuxedTopUpStartsAtEveryHolder) {
  Rng graph_rng(37);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const auto n = static_cast<NodeId>(g.node_count());
  Network net(g, 41);
  StitchEngine engine(net, scarce_params(), exact_diameter(g));
  engine.prepare(8, 120);
  std::vector<StitchEngine::WalkTask> tasks;
  tasks.reserve(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    tasks.push_back(
        engine.start_walk_task(static_cast<NodeId>(i * 8), 120, i, false));
  }
  CheckedSweepLane::Tally tally;
  tally.topped_up.assign(n, 0);
  std::uint64_t muxed_top_ups = 0;
  for (;;) {
    // A wave: up to four tasks on distinct connectors, token holders first
    // (the batch scheduler's conflict rule).
    std::vector<std::size_t> group;
    std::vector<NodeId> claimed;
    for (const bool holders : {true, false}) {
      for (std::size_t i = 0; i < tasks.size() && group.size() < 4; ++i) {
        if (tasks[i].finished() || tasks[i].holds_token() != holders ||
            std::count(claimed.begin(), claimed.end(),
                       tasks[i].connector()) != 0) {
          continue;
        }
        claimed.push_back(tasks[i].connector());
        group.push_back(i);
      }
    }
    if (group.empty()) break;
    congest::ProtocolMux mux(n);
    std::vector<std::unique_ptr<CheckedSweepLane>> lanes;
    std::vector<NodeId> top_ups;
    for (const std::size_t i : group) {
      if (dynamic_cast<GetMoreWalksProtocol*>(&tasks[i].protocol())) {
        top_ups.push_back(tasks[i].connector());
      }
      lanes.push_back(
          std::make_unique<CheckedSweepLane>(tasks[i], engine.store(), tally));
      mux.add_lane(*lanes.back(), &tasks[i].lane_rngs());
    }
    net.run_multiplexed(mux, static_cast<unsigned>(group.size()));
    for (unsigned l = 0; l < group.size(); ++l) {
      RunStats lane;
      lane.rounds = mux.lane_stats(l).rounds;
      lane.messages = mux.lane_stats(l).messages;
      tasks[group[l]].advance(lane);
    }
    for (const NodeId c : top_ups) tally.topped_up[c] = 1;
    if (group.size() > 1) muxed_top_ups += top_ups.size();
  }
  engine.run_deferred();
  EXPECT_EQ(tally.missing, 0u);
  EXPECT_GT(tally.sweeps, 0u);
  EXPECT_GT(tally.after_top_up, 0u);
  EXPECT_GT(muxed_top_ups, 0u);
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
