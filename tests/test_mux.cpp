// Lane isolation of the multi-protocol round multiplexer (tier-1):
//
//   * Protocol level: a mux of N independent storm lanes must produce, for
//     every lane, bit-identical protocol state (delivery-trace digests) and
//     per-lane round/message counts as running that lane ALONE in its own
//     Network::run (as a mux of one, with the same lane streams) -- on
//     expander, star and power-law topologies, at threads {1, 2, 8}.
//   * Stitch level: BatchScheduler's kMux execution (groups of
//     non-conflicting walk traversals in one multiplexed run) must be
//     bit-identical to kSerial (the SAME conflict-aware schedule, one lane
//     at a time): same destinations, same recorded paths, same per-request
//     round/message stats -- across thread counts.
//   * Abort cleanup: a lane that throws mid-run leaves no deliveries,
//     backlogs or wakes behind for the next run on the same Network.
//   * Conflict rule: units forced onto the same connector must serialize
//     (mux_conflicts > 0) and still agree with the serial execution.
//   * Token ownership: under a hot-key flood no short walk is consumed
//     twice -- a task's sampled, uncommitted token stays its own -- and
//     every recorded path is a walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/mux.hpp"
#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "service/batch_scheduler.hpp"
#include "service/walk_service.hpp"

namespace drw {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

std::string describe(unsigned threads) {
  return "threads=" + std::to_string(threads);
}

/// Rng-consuming token storm whose per-node digest is sensitive to
/// delivery ORDER, rng consumption and round numbers -- any lane bleed
/// (messages, wakes, rng draws) shows up as a digest mismatch.
class DigestStorm final : public congest::Protocol {
 public:
  DigestStorm(std::size_t n, std::uint32_t seeds, std::uint32_t ttl)
      : sum_(n), seeds_(seeds), ttl_(ttl) {}

  void on_round(congest::Context& ctx) override {
    const NodeId v = ctx.self();
    if (ctx.round() == 0) {
      for (std::uint32_t t = 0; t < seeds_; ++t) {
        hop(ctx, ttl_ + ctx.rng().next_below(4));
      }
      return;
    }
    for (const congest::Delivery& d : ctx.inbox()) {
      sum_[v] = sum_[v] * 1099511628211ull ^
                ((ctx.round() << 32) ^
                 (static_cast<std::uint64_t>(d.from) << 8) ^ d.msg.f[0]);
      if (d.msg.f[0] > 0) hop(ctx, d.msg.f[0] - 1);
    }
  }

  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint64_t s : sum_) h = (h ^ s) * 1099511628211ull;
    return h;
  }

 private:
  void hop(congest::Context& ctx, std::uint64_t ttl) {
    // Occasionally duplicate so per-(edge, lane) backlogs actually queue.
    const int copies = ctx.rng().next_below(6) == 0 ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      ctx.send(
          static_cast<std::uint32_t>(ctx.rng().next_below(ctx.degree())),
          congest::Message{1, {ttl, 0, 0, 0}});
    }
  }

  std::vector<std::uint64_t> sum_;
  std::uint32_t seeds_;
  std::uint32_t ttl_;
};

struct LaneOutcome {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

TEST(Mux, LanesBitIdenticalToSoloRuns) {
  constexpr std::uint64_t kSeed = 2024;
  constexpr unsigned kLanes = 5;
  Rng pl_rng(42);
  struct Family {
    const char* name;
    Graph graph;
  };
  const Family families[] = {
      {"expander", gen::random_regular(128, 4, pl_rng)},
      {"star", gen::star(96)},
      {"power_law", gen::power_law(96, 3, pl_rng)},
  };

  for (const Family& family : families) {
    const std::size_t n = family.graph.node_count();
    // Per-lane streams are a function of (seed, lane key) only, so solo
    // and muxed executions draw identically by construction.
    std::vector<NodeStreams> lane_rngs;
    for (unsigned l = 0; l < kLanes; ++l) {
      lane_rngs.push_back(
          congest::ProtocolMux::derive_lane_rngs(kSeed, l, n));
    }

    // Baseline: every lane alone, in its own network + run (mux of one).
    std::vector<LaneOutcome> solo(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) {
      congest::Network net(family.graph, kSeed);
      DigestStorm storm(n, 1 + l % 3, 12 + 4 * l);
      congest::ProtocolMux mux(n);
      NodeStreams rngs = lane_rngs[l];  // fresh copy: streams advance
      mux.add_lane(storm, &rngs);
      const congest::RunStats stats = net.run_multiplexed(mux, 1);
      solo[l].digest = storm.digest();
      solo[l].rounds = stats.rounds;
      solo[l].messages = stats.messages;
      EXPECT_EQ(mux.lane_stats(0).rounds, stats.rounds) << family.name;
      EXPECT_EQ(mux.lane_stats(0).messages, stats.messages) << family.name;
    }

    for (const unsigned threads : kThreadCounts) {
      congest::Network net(family.graph, kSeed);
      net.set_threads(threads);
      std::vector<std::unique_ptr<DigestStorm>> storms;
      std::vector<NodeStreams> rngs;
      congest::ProtocolMux mux(n);
      for (unsigned l = 0; l < kLanes; ++l) {
        storms.push_back(
            std::make_unique<DigestStorm>(n, 1 + l % 3, 12 + 4 * l));
        rngs.push_back(lane_rngs[l]);
      }
      for (unsigned l = 0; l < kLanes; ++l) {
        mux.add_lane(*storms[l], &rngs[l]);
      }
      const congest::RunStats stats = net.run_multiplexed(mux, kLanes);
      std::uint64_t max_lane_rounds = 0;
      std::uint64_t lane_messages = 0;
      for (unsigned l = 0; l < kLanes; ++l) {
        EXPECT_EQ(storms[l]->digest(), solo[l].digest)
            << family.name << " lane " << l << " " << describe(threads);
        EXPECT_EQ(mux.lane_stats(l).rounds, solo[l].rounds)
            << family.name << " lane " << l << " " << describe(threads);
        EXPECT_EQ(mux.lane_stats(l).messages, solo[l].messages)
            << family.name << " lane " << l << " " << describe(threads);
        max_lane_rounds = std::max(max_lane_rounds, solo[l].rounds);
        lane_messages += solo[l].messages;
      }
      // The whole point: the mux run's network rounds track the WIDEST
      // lane, not the sum, while total deliveries are conserved.
      EXPECT_GE(stats.rounds, max_lane_rounds)
          << family.name << " " << describe(threads);
      std::uint64_t solo_round_sum = 0;
      for (const LaneOutcome& o : solo) solo_round_sum += o.rounds;
      EXPECT_LT(stats.rounds, solo_round_sum)
          << family.name << " " << describe(threads);
      EXPECT_EQ(stats.messages, lane_messages)
          << family.name << " " << describe(threads);
    }
  }
}

// The multi-lane analogue of Network.ThrowMidComputeLeavesNoStaleDeliveries:
// one lane throws mid-run while the storm lanes beside it have deliveries
// in inboxes and backlogs in their per-(edge, lane) queues. The aborted
// run must leave nothing behind -- a fresh mux on the same Network must
// match the same mux on a fresh Network, lane for lane.
TEST(Mux, ThrowingLaneLeavesNoStaleDeliveries) {
  constexpr std::uint64_t kSeed = 5150;
  constexpr unsigned kStormLanes = 3;
  Rng graph_rng(77);
  const Graph g = gen::random_regular(128, 4, graph_rng);
  const std::size_t n = g.node_count();

  /// Every node sends one token in round 0 and forwards what it receives;
  /// the first node to receive a token in round `throw_round` throws.
  class ThrowAtRound final : public congest::Protocol {
   public:
    explicit ThrowAtRound(std::uint64_t throw_round)
        : throw_round_(throw_round) {}
    void on_round(congest::Context& ctx) override {
      if (ctx.round() == 0) {
        ctx.send(0, congest::Message{1, {0, 0, 0, 0}});
        return;
      }
      if (ctx.round() >= throw_round_) throw std::logic_error("lane boom");
      for (std::size_t i = 0; i < ctx.inbox().size(); ++i) {
        ctx.send(0, congest::Message{1, {0, 0, 0, 0}});
      }
    }

   private:
    std::uint64_t throw_round_;
  };

  // Runs kStormLanes storm lanes (lane streams keyed 0..) as one mux on
  // `net` and returns their outcomes.
  const auto run_storms = [&](congest::Network& net) {
    std::vector<std::unique_ptr<DigestStorm>> storms;
    std::vector<NodeStreams> rngs;
    congest::ProtocolMux mux(n);
    for (unsigned l = 0; l < kStormLanes; ++l) {
      storms.push_back(std::make_unique<DigestStorm>(n, 1 + l % 3, 12));
      rngs.push_back(congest::ProtocolMux::derive_lane_rngs(kSeed, l, n));
    }
    for (unsigned l = 0; l < kStormLanes; ++l) {
      mux.add_lane(*storms[l], &rngs[l]);
    }
    const congest::RunStats stats = net.run_multiplexed(mux, kStormLanes);
    std::vector<LaneOutcome> out;
    for (unsigned l = 0; l < kStormLanes; ++l) {
      out.push_back({storms[l]->digest(), mux.lane_stats(l).rounds,
                     mux.lane_stats(l).messages});
    }
    out.push_back({0, stats.rounds, stats.messages});
    return out;
  };

  for (const unsigned threads : kThreadCounts) {
    congest::Network fresh(g, kSeed);
    fresh.set_threads(threads);
    const std::vector<LaneOutcome> want = run_storms(fresh);

    congest::Network net(g, kSeed);
    net.set_threads(threads);
    {
      // Storm lanes first and the thrower last, so the throw strands
      // the storms' deliveries of the same round at later nodes.
      std::vector<std::unique_ptr<DigestStorm>> storms;
      std::vector<NodeStreams> rngs;
      congest::ProtocolMux mux(n);
      for (unsigned l = 0; l < kStormLanes; ++l) {
        storms.push_back(std::make_unique<DigestStorm>(n, 2, 20));
        rngs.push_back(
            congest::ProtocolMux::derive_lane_rngs(kSeed + 1, l, n));
      }
      for (unsigned l = 0; l < kStormLanes; ++l) {
        mux.add_lane(*storms[l], &rngs[l]);
      }
      ThrowAtRound thrower(4);
      mux.add_lane(thrower, nullptr);
      EXPECT_THROW(net.run_multiplexed(mux, kStormLanes + 1),
                   std::logic_error)
          << "threads=" << threads;
    }
    const std::vector<LaneOutcome> got = run_storms(net);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t l = 0; l < got.size(); ++l) {
      EXPECT_EQ(got[l].digest, want[l].digest)
          << "lane " << l << " threads=" << threads;
      EXPECT_EQ(got[l].rounds, want[l].rounds)
          << "lane " << l << " threads=" << threads;
      EXPECT_EQ(got[l].messages, want[l].messages)
          << "lane " << l << " threads=" << threads;
    }
  }
}

TEST(Mux, TracingOnDoesNotPerturbLanes) {
  // The obs invariant at the mux layer: per-lane digests and run totals
  // must be bit-identical with tracing on or off, at every mux width x
  // thread count. Baseline is the UNTRACED 1-thread run.
  constexpr std::uint64_t kSeed = 7331;
  Rng graph_rng(77);
  const Graph g = gen::random_regular(128, 4, graph_rng);
  const std::size_t n = g.node_count();
  const unsigned kWidths[] = {1, 4};
  const std::string trace_file = ::testing::TempDir() + "obs_mux_trace.json";

  for (const unsigned width : kWidths) {
    std::vector<NodeStreams> lane_rngs;
    for (unsigned l = 0; l < width; ++l) {
      lane_rngs.push_back(
          congest::ProtocolMux::derive_lane_rngs(kSeed, l, n));
    }

    auto run_once = [&](unsigned threads, bool traced) {
      if (traced) obs::Tracer::instance().enable(trace_file);
      congest::Network net(g, kSeed);
      net.set_threads(threads);
      std::vector<std::unique_ptr<DigestStorm>> storms;
      std::vector<NodeStreams> rngs;
      congest::ProtocolMux mux(n);
      for (unsigned l = 0; l < width; ++l) {
        storms.push_back(
            std::make_unique<DigestStorm>(n, 1 + l % 3, 10 + 3 * l));
        rngs.push_back(lane_rngs[l]);
      }
      for (unsigned l = 0; l < width; ++l) mux.add_lane(*storms[l], &rngs[l]);
      const congest::RunStats stats = net.run_multiplexed(mux, width);
      if (traced) {
        obs::Tracer::instance().disable();
        obs::Tracer::instance().flush();
      }
      std::vector<std::uint64_t> digests;
      for (const auto& s : storms) digests.push_back(s->digest());
      return std::make_tuple(std::move(digests), stats.rounds,
                             stats.messages);
    };

    const auto baseline = run_once(1, /*traced=*/false);
    for (const unsigned threads : kThreadCounts) {
      const auto traced = run_once(threads, /*traced=*/true);
      EXPECT_EQ(traced, baseline)
          << "width=" << width << " traced " << describe(threads);
    }
  }
}

// ---------------------------------------------------------------- stitching

struct BatchOutcome {
  std::vector<std::vector<NodeId>> destinations;           // per request
  std::vector<std::vector<std::vector<NodeId>>> paths;     // per request
  std::vector<std::pair<std::uint64_t, std::uint64_t>> request_stats;
  std::uint64_t stitches = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t groups = 0;
  std::uint64_t batch_rounds = 0;
};

BatchOutcome run_batch(const Graph& g, std::uint32_t diameter,
                       const std::vector<service::WalkRequest>& requests,
                       service::MuxMode mode, unsigned threads, bool record) {
  congest::Network net(g, 9099);
  net.set_threads(threads);
  core::Params params = core::Params::paper();
  params.record_trajectories = record;
  core::StitchEngine engine(net, params, diameter);
  std::uint64_t units = 0;
  std::uint64_t l_max = 0;
  for (const service::WalkRequest& r : requests) {
    units += r.count;
    l_max = std::max(l_max, r.length);
  }
  engine.prepare(units, l_max);
  EXPECT_FALSE(engine.naive_mode());

  service::MuxOptions options;
  options.mode = mode;
  options.width = 6;
  service::BatchScheduler scheduler(engine);
  const service::BatchScheduler::Outcome out =
      scheduler.run(requests, 100, options);

  BatchOutcome result;
  for (const service::RequestResult& r : out.results) {
    result.destinations.push_back(r.destinations);
    result.paths.push_back(r.paths);
    result.request_stats.emplace_back(r.stats.rounds, r.stats.messages);
  }
  result.stitches = out.counters.stitches;
  result.conflicts = out.mux_conflicts;
  result.groups = out.mux_groups;
  result.batch_rounds = out.stats.rounds;
  return result;
}

TEST(Mux, StitchBatchBitIdenticalToSerialSchedule) {
  Rng graph_rng(31337);
  const Graph g = gen::random_regular(192, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  std::vector<service::WalkRequest> requests;
  Rng workload_rng(88);
  for (int i = 0; i < 6; ++i) {
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>(workload_rng.next_below(g.node_count())),
        1024u << (i % 2), 1, true});
  }

  const BatchOutcome serial =
      run_batch(g, diameter, requests, service::MuxMode::kSerial, 1, true);
  EXPECT_GT(serial.stitches, 0u) << "workload must actually stitch";

  for (const unsigned threads : kThreadCounts) {
    const BatchOutcome muxed =
        run_batch(g, diameter, requests, service::MuxMode::kMux, threads, true);
    EXPECT_EQ(muxed.destinations, serial.destinations) << describe(threads);
    EXPECT_EQ(muxed.paths, serial.paths) << describe(threads);
    EXPECT_EQ(muxed.request_stats, serial.request_stats) << describe(threads);
    EXPECT_EQ(muxed.stitches, serial.stitches) << describe(threads);
    // Groups and conflicts are schedule properties, identical by
    // construction; batch rounds must shrink (shared waves).
    EXPECT_EQ(muxed.groups, serial.groups) << describe(threads);
    EXPECT_EQ(muxed.conflicts, serial.conflicts) << describe(threads);
    EXPECT_LT(muxed.batch_rounds, serial.batch_rounds) << describe(threads);
  }
}

TEST(Mux, ForcedConflictSerializes) {
  Rng graph_rng(4242);
  const Graph g = gen::random_regular(128, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  // Every walk starts at the SAME source: the first wave's traversals all
  // contend for node 7's token pool, so the conflict rule must admit one
  // lane and defer the rest.
  std::vector<service::WalkRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(service::WalkRequest{7, 1024, 1, false});
  }

  const BatchOutcome serial =
      run_batch(g, diameter, requests, service::MuxMode::kSerial, 1, false);
  const BatchOutcome muxed =
      run_batch(g, diameter, requests, service::MuxMode::kMux, 2, false);
  EXPECT_GT(serial.stitches, 0u);
  EXPECT_GT(muxed.conflicts, 0u) << "same-connector units must serialize";
  EXPECT_EQ(muxed.destinations, serial.destinations);
  EXPECT_EQ(muxed.request_stats, serial.request_stats);
}

/// Serves a hot-key sequence through WalkService at `width`: a two-walk
/// warm-up from node 3, then `batches` batches that each mix 1-3 hot
/// requests (8 walks of 1024 steps from node 7) with 0-3 light 1024-step
/// requests of 1-2 walks from random sources, about 10% of them recorded.
/// Every recorded path must be a walk of the requested length ending at
/// its destination.
void serve_hot_key_sequence(const Graph& g, std::uint32_t diameter,
                            unsigned width, std::uint64_t seed,
                            int batches) {
  congest::Network net(g, 4);
  net.set_threads(1);
  service::ServiceConfig config;
  config.params = core::Params::paper();
  config.enable_paths = true;
  config.mux_width = width;
  service::WalkService service(net, diameter, config);
  service.serve({service::WalkRequest{3, 1024, 2, false}});

  Rng rng(seed);
  for (int b = 0; b < batches; ++b) {
    std::vector<service::WalkRequest> batch;
    for (auto hot = 1 + rng.next_below(3); hot > 0; --hot) {
      batch.push_back(service::WalkRequest{7, 1024, 8, false});
    }
    for (auto light = rng.next_below(4); light > 0; --light) {
      const auto source = static_cast<NodeId>(rng.next_below(g.node_count()));
      const auto count = static_cast<std::uint32_t>(1 + rng.next_below(2));
      batch.push_back(service::WalkRequest{source, 1024, count,
                                           rng.next_below(10) == 0});
    }
    const service::BatchReport report = service.serve(batch);
    for (const service::RequestResult& r : report.results) {
      ASSERT_TRUE(r.ok()) << r.error();
      for (std::size_t w = 0; w < r.paths.size(); ++w) {
        const std::vector<NodeId>& path = r.paths[w];
        ASSERT_EQ(path.size(), r.request.length + 1);
        EXPECT_EQ(path.front(), r.request.source);
        EXPECT_EQ(path.back(), r.destinations[w]);
        for (std::size_t i = 1; i < path.size(); ++i) {
          ASSERT_TRUE(g.has_edge(path[i - 1], path[i]))
              << "width " << width << " seed " << seed << " batch " << b
              << " step " << i;
        }
      }
    }
  }
}

TEST(Mux, HotKeyFloodNeverConsumesATokenTwice) {
  // A task samples a token in one wave and commits it in a later one. An
  // older task reaching the same connector in between must not sample
  // that token again: the holder claims its connector first. Without that
  // rule at least one of these sequences aborts with "token already used".
  // The graph is the one `drw --graph=regular:128,4 --seed=4` builds.
  Rng graph_rng(4 ^ 0xabcdef);
  const Graph g = gen::random_regular(128, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  for (const unsigned width : {4u, 8u}) {
    for (const std::uint64_t seed : {1u, 5u}) {
      EXPECT_NO_THROW(serve_hot_key_sequence(g, diameter, width, seed, 8))
          << "width " << width << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace drw
