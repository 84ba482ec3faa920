// WalkService + BatchScheduler: persistent-inventory serving semantics.
//
//   * exhaustion is absorbed by replenishment (targeted or in-walk
//     GET-MORE-WALKS), never by a second Phase 1;
//   * mixed-length, mixed-source batches return distribution-correct
//     destinations (chi-square against the markov.cpp power iteration),
//     including batches served entirely from a reused inventory;
//   * deferred-tail batching does not change the sampled law (and a
//     singleton batch reproduces the hand-driven engine bit-for-bit);
//   * recorded paths are valid walks, and their positions follow P^t at
//     steps inside and between stitched segments (Holm-corrected
//     chi-square) while spent GET-MORE-WALKS generations are freed between
//     batches; request validation throws;
//   * the batch boundary drops used tokens and keeps the routing records
//     within 2x the previous freeing pass plus a fixed slack;
//   * the stitching width comes from the config alone, never the
//     environment;
//   * a warm stitch costs one convergecast plus a commit down the sampled
//     walk's path, not a second full-tree sweep.
#include "service/walk_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "apps/mixing.hpp"
#include "apps/pagerank.hpp"
#include "congest/network.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/markov.hpp"
#include "util/stats.hpp"
#include "walk_test_utils.hpp"

namespace drw::service {
namespace {

using congest::Network;
using core::Params;

ServiceConfig tiny_lambda_config(std::uint32_t lambda = 3) {
  ServiceConfig config;
  config.params = Params::paper();
  config.params.lambda_override = lambda;
  return config;
}

TEST(WalkService, ExhaustionTriggersReplenishmentNotReprepare) {
  // Keep serving heavy same-source traffic from a deliberately tiny pool:
  // the pool must be topped up (targeted runs and/or in-walk
  // GET-MORE-WALKS), and Phase 1 must run exactly once, on the first batch.
  const Graph g = gen::grid(4, 4);
  Network net(g, 77);
  WalkService service(net, exact_diameter(g), tiny_lambda_config());

  std::uint64_t engine_gmw = 0;
  for (int batch = 0; batch < 6; ++batch) {
    const BatchReport report = service.serve({
        WalkRequest{0, 48, 4}, WalkRequest{5, 48, 4},
    });
    EXPECT_EQ(report.full_prepare, batch == 0);
    engine_gmw += report.engine_gmw_calls;
    for (const RequestResult& r : report.results) {
      for (NodeId dest : r.destinations) ASSERT_LT(dest, g.node_count());
    }
  }
  const ServiceStats& life = service.lifetime();
  EXPECT_EQ(life.full_prepares, 1u);
  EXPECT_GT(life.replenishments + engine_gmw, 0u)
      << "exhaustion was never absorbed by replenishment";
  EXPECT_GT(life.replenishments, 0u)
      << "targeted (pre-batch) replenishment never fired";
  EXPECT_EQ(life.batches, 6u);
  EXPECT_EQ(life.walks, 48u);
}

TEST(WalkService, MixedLengthBatchesAreDistributionCorrect) {
  // One heterogeneous batch, three (source, length) groups; the law of each
  // group's destinations must match the exact Markov oracle. The SECOND
  // batch of every run is the one tested: it is served from the reused,
  // partially depleted, incrementally replenished inventory -- the serving
  // path the tentpole adds.
  Rng rng(123);
  const Graph g = gen::erdos_renyi_connected(12, 0.3, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const MarkovOracle oracle(g);
  struct Group {
    NodeId source;
    std::uint64_t length;
  };
  const std::vector<Group> groups = {{2, 10}, {0, 7}, {5, 16}};

  std::vector<std::vector<std::uint64_t>> counts(
      groups.size(), std::vector<std::uint64_t>(g.node_count(), 0));
  const int runs = 1200;
  for (int run = 0; run < runs; ++run) {
    Network net(g, 61000 + run);
    WalkService service(net, diameter, tiny_lambda_config());
    std::vector<WalkRequest> batch;
    for (const Group& group : groups) {
      batch.push_back(WalkRequest{group.source, group.length, 2});
    }
    service.serve(batch);                       // batch 1: pays Phase 1
    const BatchReport second = service.serve(batch);  // batch 2: reuse path
    EXPECT_FALSE(second.full_prepare);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (NodeId dest : second.results[i].destinations) {
        ++counts[i][dest];
      }
    }
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto expected =
        oracle.distribution_after(groups[i].source, groups[i].length);
    const auto result = chi_square_test(counts[i], expected);
    EXPECT_GT(result.p_value, 1e-4)
        << "group " << i << ": chi2=" << result.statistic;
  }
}

TEST(WalkService, SingletonBatchMatchesHandDrivenEngine) {
  // One request, count 1: the service's deferred-tail path consumes node
  // coins in the same order as a hand-driven engine walk, so the same
  // network seed must reproduce the same destination exactly.
  const Graph g = gen::grid(5, 5);
  const std::uint32_t diameter = exact_diameter(g);
  for (int seed = 0; seed < 10; ++seed) {
    Network service_net(g, 900 + seed);
    WalkService service(service_net, diameter, tiny_lambda_config(5));
    const BatchReport report =
        service.serve({WalkRequest{3, 70, 1}});

    Network engine_net(g, 900 + seed);
    Params params = Params::paper();
    params.lambda_override = 5;
    core::StitchEngine engine(engine_net, params, diameter);
    engine.prepare(1, 70);
    const core::WalkResult reference = engine.walk(3, 70, 0);

    EXPECT_EQ(report.results[0].destinations[0], reference.destination)
        << "seed " << seed;
  }
}

TEST(WalkService, ConcurrentNaiveTailBatchIsDistributionCorrect) {
  // Forty walks too short to stitch (the planned lambda exceeds their
  // length) all run as ONE concurrent deferred-tail protocol; concurrency
  // must not bias the sampled law.
  const Graph g = gen::cycle(6);
  const MarkovOracle oracle(g);
  const std::uint64_t l = 9;
  const auto expected = oracle.distribution_after(0, l);

  std::vector<std::uint64_t> counts(g.node_count(), 0);
  const int runs = 150;
  for (int run = 0; run < runs; ++run) {
    Network net(g, 71000 + run);
    ServiceConfig config;  // formula lambda on k=40 walks: naive mode
    WalkService service(net, 3, config);
    const BatchReport report = service.serve({WalkRequest{0, l, 40}});
    EXPECT_TRUE(report.naive_mode);
    // Concurrent tails: far fewer rounds than 40 sequential l-step walks.
    EXPECT_LT(report.stats.rounds, 40u * l / 2);
    for (NodeId dest : report.results[0].destinations) ++counts[dest];
  }
  const auto result = chi_square_test(counts, expected);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(WalkService, RecordedPathsAreValidWalks) {
  const Graph g = gen::torus(4, 4);
  Network net(g, 17);
  ServiceConfig config = tiny_lambda_config(4);
  config.enable_paths = true;
  WalkService service(net, exact_diameter(g), config);

  const BatchReport report = service.serve({
      WalkRequest{1, 33, 3, /*record_positions=*/true},
      WalkRequest{9, 50, 2, /*record_positions=*/false},
      WalkRequest{4, 0, 1, /*record_positions=*/true},  // zero-length walk
  });

  const RequestResult& recorded = report.results[0];
  ASSERT_EQ(recorded.paths.size(), 3u);
  for (std::uint32_t w = 0; w < 3; ++w) {
    const std::vector<NodeId>& path = recorded.paths[w];
    ASSERT_EQ(path.size(), 34u);
    EXPECT_EQ(path.front(), 1u);
    EXPECT_EQ(path.back(), recorded.destinations[w]);
    for (std::size_t i = 1; i < path.size(); ++i) {
      ASSERT_LT(path[i], g.node_count()) << "step " << i << " missing";
      EXPECT_TRUE(g.has_edge(path[i - 1], path[i]))
          << "walk " << w << " step " << i << " not an edge";
    }
  }
  EXPECT_TRUE(report.results[1].paths.empty());
  const RequestResult& zero = report.results[2];
  ASSERT_EQ(zero.paths.size(), 1u);
  EXPECT_EQ(zero.paths[0], std::vector<NodeId>{4});
  EXPECT_EQ(zero.destinations[0], 4u);
}

// A batch's deferred tails and its regeneration share one finishing run
// (StitchEngine::run_deferred). Their messages queue on the same edges, so
// each recorded path must still be a walk from its source to its
// destination, at mux widths 1 and 4; and at each width the served results
// must not depend on the executor's thread count. Lambda 4 with lengths
// 5..40 mixes whole-walk tails (l < 2*lambda), stitched walks with tails,
// pre-batch top-ups and in-walk GET-MORE-WALKS runs.
TEST(WalkService, FinishRunRecordsWalksAtEveryWidthAndThreadCount) {
  Rng graph_rng(77);
  const Graph g = gen::random_regular(96, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  for (const unsigned mux : {1u, 4u}) {
    std::string reference;
    for (const unsigned threads : {1u, 4u}) {
      Network net(g, 913);
      net.set_threads(threads);
      ServiceConfig config = tiny_lambda_config(4);
      config.enable_paths = true;
      config.mux_width = mux;
      WalkService service(net, diameter, config);
      Rng traffic(5);
      std::string served;
      std::uint64_t recorded = 0;
      for (int batch = 0; batch < 12; ++batch) {
        std::vector<WalkRequest> requests;
        for (int r = 0; r < 8; ++r) {
          requests.push_back(WalkRequest{
              static_cast<NodeId>(traffic.next_below(g.node_count())),
              5 + traffic.next_below(36),
              1 + static_cast<std::uint32_t>(traffic.next_below(3)),
              traffic.next_below(2) == 0});
        }
        const BatchReport report = service.serve(requests);
        for (const RequestResult& result : report.results) {
          const WalkRequest& req = result.request;
          ASSERT_EQ(result.status, RequestStatus::kOk);
          ASSERT_EQ(result.paths.size(),
                    req.record_positions ? req.count : 0u);
          for (std::size_t w = 0; w < result.paths.size(); ++w) {
            const std::vector<NodeId>& path = result.paths[w];
            ASSERT_EQ(path.size(), req.length + 1);
            EXPECT_EQ(path.front(), req.source);
            EXPECT_EQ(path.back(), result.destinations[w]);
            for (std::size_t i = 1; i < path.size(); ++i) {
              ASSERT_TRUE(g.has_edge(path[i - 1], path[i]))
                  << "mux " << mux << " step " << i << " not an edge";
            }
            ++recorded;
          }
          for (const NodeId d : result.destinations) {
            served += std::to_string(d) + ' ';
          }
          for (const std::vector<NodeId>& path : result.paths) {
            for (const NodeId v : path) served += std::to_string(v) + ' ';
          }
          served += '\n';
        }
      }
      const ServiceStats& life = service.lifetime();
      EXPECT_GT(recorded, 0u);
      EXPECT_GT(life.stitches, 0u);
      EXPECT_GT(life.replenishments, 0u);
      if (threads == 1) {
        reference = served;
      } else {
        EXPECT_EQ(served, reference) << "mux " << mux << ": results moved "
                                     << "with the thread count";
      }
    }
  }
}

// Exactness of regenerated paths (Section 2.2). A tiny lambda and one-source
// traffic make most stitched segments GET-MORE-WALKS tokens, replayed
// backward through their generation's records while freeing passes run
// between batches. The recorded position at step t -- at segment ends and
// inside segments -- must follow P^t(source, .), at mux widths 1 and 4 and
// on a high-contention star. Seeds are fixed; a Holm step-down over every
// (graph, width, step) cell keeps the family-wise false-alarm rate at 1e-3.
TEST(WalkService, RegeneratedPathsMatchExactStepDistributions) {
  struct Case {
    const char* name;
    Graph g;
    NodeId source;
  };
  Rng graph_rng(2024);
  std::vector<Case> cases;
  cases.push_back({"lollipop", gen::lollipop(5, 4), 0});
  cases.push_back({"regular", gen::random_regular(16, 3, graph_rng), 0});
  cases.push_back({"star", gen::star(9), 1});
  constexpr std::uint64_t kLength = 30;
  constexpr int kBatches = 100;
  const std::uint64_t steps[] = {1, 2, 4, 5, 7, 10, 13, 17, 22, kLength};

  std::vector<double> p_values;
  std::vector<std::string> labels;
  for (const Case& c : cases) {
    const MarkovOracle oracle(c.g);
    for (const unsigned mux : {1u, 4u}) {
      const std::string label =
          std::string(c.name) + " mux=" + std::to_string(mux);
      Network net(c.g, 4100 + mux);
      ServiceConfig config = tiny_lambda_config(3);
      config.enable_paths = true;
      config.mux_width = mux;
      WalkService service(net, exact_diameter(c.g), config);
      std::vector<std::vector<std::uint64_t>> counts(
          std::size(steps), std::vector<std::uint64_t>(c.g.node_count(), 0));
      std::uint64_t phase1_tokens = 0;
      for (int batch = 0; batch < kBatches; ++batch) {
        const BatchReport report = service.serve(std::vector<WalkRequest>(
            4, WalkRequest{c.source, kLength, 2, true}));
        for (const RequestResult& r : report.results) {
          phase1_tokens += r.counters.walks_prepared;
          for (const std::vector<NodeId>& path : r.paths) {
            ASSERT_EQ(path.size(), kLength + 1) << label;
            for (std::size_t i = 0; i < std::size(steps); ++i) {
              ++counts[i][path[steps[i]]];
            }
          }
        }
      }
      const ServiceStats& life = service.lifetime();
      // At most phase1_tokens segments are Phase-1 walks.
      EXPECT_GT(life.stitches, 2 * phase1_tokens) << label;
      EXPECT_GT(life.gmw_records_freed, 0u) << label;
      for (std::size_t i = 0; i < std::size(steps); ++i) {
        p_values.push_back(
            chi_square_test(counts[i],
                            oracle.distribution_after(c.source, steps[i]))
                .p_value);
        labels.push_back(label + " t=" + std::to_string(steps[i]));
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
}

// The batch boundary keeps the serving state bounded: no used token
// survives a flush, a spent generation's records are gone after the next
// freeing pass, the record count stays within 2x what the previous pass
// kept plus the slack, and tokens of generations that stayed live still
// replay to valid walks after a pass.
TEST(WalkService, BatchBoundaryCompactsTokensAndFreesSpentGenerations) {
  const Graph g = gen::torus(5, 5);
  Network net(g, 63);
  ServiceConfig config = tiny_lambda_config(3);
  config.enable_paths = true;
  WalkService service(net, exact_diameter(g), config);
  const core::StitchEngine& engine = service.engine();
  const core::TrajectoryStore& trajectories = engine.trajectories();

  const auto generations_in_records = [&trajectories] {
    std::vector<std::uint32_t> gens;
    for (const auto& records : trajectories.gmw) {
      for (const core::GmwRecord& r : records) gens.push_back(r.gen);
    }
    std::sort(gens.begin(), gens.end());
    gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
    return gens;
  };
  const auto unspent_below = [&trajectories](std::uint32_t gen_bound) {
    std::uint64_t count = 0;
    for (const auto& records : trajectories.gmw) {
      for (const core::GmwRecord& r : records) {
        count += r.gen < gen_bound &&
                 r.next_slot != core::TrajectoryStore::kSpentSlot;
      }
    }
    return count;
  };

  std::vector<std::uint32_t> dead_before_pass;
  int passes = 0;
  int replayed_after_pass = 0;
  for (int batch = 0; batch < 120; ++batch) {
    const std::uint32_t gens_before = trajectories.next_generation;
    const std::uint64_t older_unspent = unspent_below(gens_before);
    const BatchReport report = service.serve({
        WalkRequest{static_cast<NodeId>(batch % 5), 30, 3, true},
        WalkRequest{12, 30, 3, false},
    });
    const std::string label = "batch " + std::to_string(batch);

    std::uint64_t held = 0;
    for (const auto& tokens : engine.store().held) {
      for (const core::HeldToken& t : tokens) {
        EXPECT_FALSE(t.used) << label;
        ++held;
      }
    }
    EXPECT_EQ(report.held_tokens, held) << label;
    EXPECT_EQ(report.unused_tokens, held) << label;
    EXPECT_EQ(report.gmw_records, trajectories.gmw_record_count()) << label;
    EXPECT_LE(report.gmw_records,
              2 * trajectories.records_kept +
                  core::StitchEngine::kGmwRecordSlack)
        << label;

    if (report.gmw_records_freed > 0) {
      ++passes;
      const std::vector<std::uint32_t> present = generations_in_records();
      for (const std::uint32_t gen : dead_before_pass) {
        EXPECT_FALSE(std::binary_search(present.begin(), present.end(), gen))
            << label << ": spent generation " << gen << " kept";
      }
    } else if (passes > 0 && unspent_below(gens_before) < older_unspent) {
      // This batch replayed records of generations that survived a pass.
      ++replayed_after_pass;
    }
    for (const RequestResult& r : report.results) {
      for (std::size_t w = 0; w < r.paths.size(); ++w) {
        ASSERT_EQ(r.paths[w].size(), 31u) << label;
        EXPECT_EQ(r.paths[w].back(), r.destinations[w]) << label;
        for (std::size_t i = 1; i < r.paths[w].size(); ++i) {
          EXPECT_TRUE(g.has_edge(r.paths[w][i - 1], r.paths[w][i]))
              << label << " step " << i;
        }
      }
    }
    // Generations with records but no held token: the next pass frees them.
    const std::vector<std::uint8_t> live =
        engine.store().live_generations(trajectories.next_generation);
    dead_before_pass.clear();
    for (const std::uint32_t gen : generations_in_records()) {
      if (!core::TrajectoryStore::is_live(live, gen)) {
        dead_before_pass.push_back(gen);
      }
    }
  }
  EXPECT_GE(passes, 2);
  EXPECT_GT(replayed_after_pass, 0);
  EXPECT_EQ(service.lifetime().held_tokens,
            service.lifetime().unused_tokens);
}

TEST(WalkService, SubmitValidationAndEmptyFlush) {
  const Graph g = gen::cycle(8);
  Network net(g, 2);
  WalkService service(net, 4, ServiceConfig{});

  // Invalid requests come back as structured per-request errors in their
  // submission slot (never throws, never engine involvement); the valid
  // request in the same batch is served normally.
  const BatchReport mixed = service.serve({
      WalkRequest{99, 5, 1},        // source out of range
      WalkRequest{0, 5, 1, true},   // paths not enabled
      WalkRequest{0, 5, 1},         // fine
  });
  EXPECT_EQ(mixed.requests, 3u);
  EXPECT_EQ(mixed.rejected, 2u);
  EXPECT_EQ(mixed.results[0].status, RequestStatus::kSourceOutOfRange);
  EXPECT_TRUE(mixed.results[0].destinations.empty());
  EXPECT_EQ(mixed.results[1].status, RequestStatus::kPathsDisabled);
  EXPECT_TRUE(mixed.results[2].ok());
  EXPECT_EQ(mixed.results[2].destinations.size(), 1u);

  const BatchReport empty = service.flush();
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_EQ(empty.stats.rounds, 0u);

  // A zero-count request costs nothing but is acknowledged.
  const BatchReport zero = service.serve({WalkRequest{0, 5, 0}});
  EXPECT_EQ(zero.requests, 1u);
  EXPECT_EQ(zero.walks, 0u);
  EXPECT_TRUE(zero.results[0].ok());
  EXPECT_TRUE(zero.results[0].destinations.empty());

  // A zero-length request is `count` copies of the source, served without
  // touching the engine (no rounds, no messages).
  const BatchReport zlen = service.serve({WalkRequest{3, 0, 4}});
  EXPECT_EQ(zlen.walks, 4u);
  EXPECT_EQ(zlen.stats.rounds, 0u);
  EXPECT_EQ(zlen.results[0].destinations,
            std::vector<NodeId>({3, 3, 3, 3}));
}

TEST(WalkService, MuxWidthComesFromTheConfigNotTheEnvironment) {
  // The width decides which samples are drawn, so a stray DRW_MUX must not
  // change what a default-config service (or its admission-log replay)
  // serves.
  ASSERT_EQ(::setenv("DRW_MUX", "4", 1), 0);
  const Graph g = gen::cycle(8);
  Network net(g, 2);
  const WalkService defaulted(net, 4, ServiceConfig{});
  ::unsetenv("DRW_MUX");
  EXPECT_EQ(defaulted.mux_width(), 1u);

  // Explicit widths are clamped to [1, kMaxLanes].
  ServiceConfig config;
  config.mux_width = 0;
  EXPECT_EQ(WalkService(net, 4, config).mux_width(), 1u);
  config.mux_width = Network::kMaxLanes + 1;
  EXPECT_EQ(WalkService(net, 4, config).mux_width(), Network::kMaxLanes);
}

TEST(WalkService, ThroughputCountersAreCoherent) {
  const Graph g = gen::grid(4, 4);
  Network net(g, 41);
  WalkService service(net, exact_diameter(g), tiny_lambda_config());
  const BatchReport report = service.serve({
      WalkRequest{0, 40, 3}, WalkRequest{7, 12, 2},
  });
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.walks, 5u);
  EXPECT_EQ(report.naive_rounds_estimate, 3u * 40 + 2u * 12);
  EXPECT_GT(report.stats.rounds, 0u);
  EXPECT_GE(report.inventory_hit_rate(), 0.0);
  EXPECT_LE(report.inventory_hit_rate(), 1.0);
  EXPECT_EQ(report.inventory_hits + report.engine_gmw_calls,
            report.stitches);
  EXPECT_DOUBLE_EQ(report.rounds_per_request(),
                   static_cast<double>(report.stats.rounds) / 2.0);
  // Per-request stats sum to at most the batch total (the shared tail run
  // is batch-level only).
  std::uint64_t direct = 0;
  for (const RequestResult& r : report.results) direct += r.stats.rounds;
  EXPECT_LE(direct, report.stats.rounds);
}

TEST(WalkService, RecurringConnectorsReuseTheirBfsTrees) {
  // A small graph and a tiny lambda make connectors recur within and across
  // batches. Every stitch starts with exactly one tree build or reuse, and
  // (one walk at a time, nothing evicted) each distinct connector is built
  // exactly once.
  const Graph g = gen::grid(4, 4);
  Network net(g, 29);
  WalkService service(net, exact_diameter(g), tiny_lambda_config());
  std::uint64_t builds = 0;
  std::uint64_t reuses = 0;
  std::uint64_t stitches = 0;
  for (int batch = 0; batch < 4; ++batch) {
    const BatchReport report = service.serve({
        WalkRequest{0, 40, 3}, WalkRequest{9, 30, 2}, WalkRequest{15, 24, 1},
    });
    EXPECT_EQ(report.tree_builds + report.tree_reuses, report.stitches)
        << "batch " << batch;
    builds += report.tree_builds;
    reuses += report.tree_reuses;
    stitches += report.stitches;
  }
  const ServiceStats& life = service.lifetime();
  EXPECT_EQ(life.full_prepares, 1u);
  EXPECT_EQ(life.tree_builds, builds);
  EXPECT_EQ(life.tree_reuses, reuses);
  EXPECT_EQ(builds + reuses, stitches);
  EXPECT_GT(reuses, 0u);

  std::uint64_t distinct = 0;
  for (const std::uint64_t visits : service.engine().connector_visits()) {
    if (visits != 0) ++distinct;
  }
  EXPECT_EQ(builds, distinct);
  EXPECT_EQ(service.engine().tree_cache().size(), distinct);
  EXPECT_LE(service.engine().tree_cache().bytes(),
            core::StitchEngine::kTreeCacheBytes);
}

TEST(WalkService, WarmStitchesCommitAlongTheSampledPath) {
  // Once every connector's tree is cached and the inventory covers the
  // batch, a stitch is one convergecast up the tree (n - 1 messages) plus
  // a commit down the sampled walk's path (at most height <= D messages),
  // not a second full-tree sweep. Checked on every warm batch that builds
  // no tree and calls no in-walk GET-MORE-WALKS.
  Rng graph_rng(5);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  Network net(g, 23);
  WalkService service(net, diameter, tiny_lambda_config(8));
  const std::vector<WalkRequest> batch = {
      WalkRequest{0, 64, 2}, WalkRequest{21, 64, 2}, WalkRequest{42, 64, 2},
  };
  int warm_batches = 0;
  for (int i = 0; i < 60; ++i) {
    const BatchReport report = service.serve(batch);
    if (service.engine().tree_cache().size() < g.node_count() ||
        report.tree_builds != 0 || report.engine_gmw_calls != 0) {
      continue;
    }
    ++warm_batches;
    ASSERT_GT(report.stitches, 0u);
    std::uint64_t phase2_messages = 0;
    for (const RequestResult& r : report.results) {
      phase2_messages += r.counters.phase2.messages;
    }
    EXPECT_LE(phase2_messages,
              report.stitches * (g.node_count() - 1 + diameter))
        << "batch " << i;
  }
  EXPECT_GE(warm_batches, 10);
}

TEST(WalkService, WarmSampleSweepsSendOnlyFromHolderSubtrees) {
  // A stitch at a connector whose tree was swept before runs a silent
  // sample sweep: only the subtrees holding the connector's unused walks
  // report, at most U paths of at most D hops, where U is the largest
  // unused stock of any source when the batch starts. With the commit's
  // <= D messages, a warm stitch costs at most U * D + D messages, well
  // under the n - 1 of a sweep in which every node reports. Checked on
  // every batch that builds no tree and calls no in-walk GET-MORE-WALKS.
  Rng graph_rng(5);
  const Graph g = gen::random_regular(256, 8, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  Network net(g, 23);
  WalkService service(net, diameter, tiny_lambda_config(8));
  const std::vector<WalkRequest> batch = {
      WalkRequest{0, 64, 1}, WalkRequest{21, 64, 1}, WalkRequest{42, 64, 1},
  };
  int warm_batches = 0;
  for (int i = 0; i < 120; ++i) {
    const std::vector<std::uint64_t> stock =
        service.engine().unused_counts_by_source();
    const BatchReport report = service.serve(batch);
    if (report.tree_builds != 0 || report.engine_gmw_calls != 0) continue;
    ++warm_batches;
    ASSERT_GT(report.stitches, 0u);
    // Pre-batch top-ups add to some sources' stock before any stitch.
    const std::uint64_t most_unused =
        *std::max_element(stock.begin(), stock.end()) +
        report.replenished_walks;
    std::uint64_t phase2_messages = 0;
    for (const RequestResult& r : report.results) {
      phase2_messages += r.counters.phase2.messages;
    }
    EXPECT_LE(phase2_messages,
              report.stitches * (most_unused * diameter + diameter))
        << "batch " << i << ": U = " << most_unused;
  }
  EXPECT_GE(warm_batches, 20);
}

TEST(WalkService, MixingEstimatorRunsThroughService) {
  Rng rng(9);
  const Graph g = gen::random_regular(48, 4, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const MarkovOracle oracle(g);
  const auto exact = oracle.mixing_time_standard(0, 4096);
  ASSERT_TRUE(exact.has_value());

  Network net(g, 4);
  WalkService service(net, diameter, ServiceConfig{});
  apps::MixingOptions options;
  options.samples = 160;
  const apps::MixingEstimate est =
      apps::estimate_mixing_time_via_service(service, 0, options);
  EXPECT_TRUE(est.converged);
  // Same tolerance shape as the direct estimator's tests: the estimate
  // brackets the exact tau within a constant factor.
  EXPECT_GE(est.tau, *exact / 8);
  EXPECT_LE(est.tau, *exact * 8);
  // The whole point of serving: the probes shared the inventory instead of
  // each paying Phase 1.
  EXPECT_GE(est.lengths_tested, 2u);
  EXPECT_LT(service.lifetime().full_prepares,
            static_cast<std::uint64_t>(est.lengths_tested));
}

TEST(WalkService, PersonalizedPagerankViaServiceMatchesReference) {
  Rng rng(15);
  const Graph g = gen::random_geometric(40, 0.3, rng);
  const std::uint32_t diameter = exact_diameter(g);
  const NodeId source = 7;
  const double alpha = 0.2;

  Network net(g, 8);
  WalkService service(net, diameter, ServiceConfig{});
  apps::PageRankOptions options;
  options.alpha = alpha;
  const apps::PageRankResult result =
      apps::estimate_personalized_pagerank_via_service(service, source,
                                                       4000, options);
  const std::vector<double> reference =
      apps::personalized_pagerank_reference(g, source, alpha);
  EXPECT_LT(l1_distance(result.scores, reference), 0.15);
  EXPECT_EQ(result.total_tokens, 4000u);
}

}  // namespace
}  // namespace drw::service
