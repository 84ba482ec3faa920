// Determinism of the parallel round executor (tier-1): the same seeded
// workload must produce bit-identical results at every thread count --
// delivery traces, walk endpoints, recorded paths, RunStats.messages --
// including on the degree-skewed topologies (star, lollipop, power-law)
// where the edge-weighted shard partition puts a hub alone in its shard
// (at 8 threads star(96)'s center outweighs a whole share, so some shards
// are empty).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/walk_service.hpp"

namespace drw {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

/// Stress protocol for ordering: every node seeds a few random-walking
/// tokens and records its full delivery trace (round, sender, payload) --
/// any divergence in inbox order or RNG consumption shows up here.
class TracingStorm final : public congest::Protocol {
 public:
  explicit TracingStorm(std::size_t n) : trace_(n) {}

  void on_round(congest::Context& ctx) override {
    const NodeId v = ctx.self();
    if (ctx.round() == 0) {
      for (int t = 0; t < 3; ++t) {
        hop(ctx, 24 + static_cast<std::uint64_t>(ctx.rng().next_below(8)));
      }
      return;
    }
    for (const congest::Delivery& d : ctx.inbox()) {
      trace_[v].push_back((ctx.round() << 40) ^
                          (static_cast<std::uint64_t>(d.from) << 20) ^
                          d.msg.f[0]);
      if (d.msg.f[0] > 0) hop(ctx, d.msg.f[0] - 1);
    }
  }

  const std::vector<std::vector<std::uint64_t>>& trace() const {
    return trace_;
  }

 private:
  void hop(congest::Context& ctx, std::uint64_t ttl) {
    // Bursty: occasionally duplicate a token so edge backlogs build up and
    // the one-message-per-edge-per-round drain order is on the tested path.
    const int copies = ctx.rng().next_below(8) == 0 ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      ctx.send(static_cast<std::uint32_t>(ctx.rng().next_below(ctx.degree())),
               congest::Message{1, {ttl, 0, 0, 0}});
    }
  }

  std::vector<std::vector<std::uint64_t>> trace_;
};

TEST(Determinism, DeliveryTraceBitIdenticalAcrossThreadCounts) {
  Rng graph_rng(505);
  const Graph g = gen::random_regular(96, 4, graph_rng);

  std::vector<std::vector<std::uint64_t>> baseline_trace;
  congest::RunStats baseline;
  for (const unsigned threads : kThreadCounts) {
    congest::Network net(g, 1234);
    net.set_threads(threads);
    TracingStorm protocol(g.node_count());
    const congest::RunStats stats = net.run(protocol);
    EXPECT_EQ(stats.threads, net.threads());
    if (threads == kThreadCounts[0]) {
      baseline_trace = protocol.trace();
      baseline = stats;
      continue;
    }
    EXPECT_EQ(protocol.trace(), baseline_trace) << "threads=" << threads;
    EXPECT_EQ(stats.rounds, baseline.rounds) << "threads=" << threads;
    EXPECT_EQ(stats.messages, baseline.messages) << "threads=" << threads;
    EXPECT_EQ(stats.max_backlog, baseline.max_backlog)
        << "threads=" << threads;
  }
}

TEST(Determinism, SingleWalkEndpointAndPathBitIdentical) {
  Rng graph_rng(606);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  core::Params params = core::Params::paper();
  params.record_trajectories = true;

  NodeId baseline_destination = kInvalidNode;
  std::uint64_t baseline_messages = 0;
  std::uint64_t baseline_rounds = 0;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
      baseline_positions;
  for (const unsigned threads : kThreadCounts) {
    congest::Network net(g, 77);
    net.set_threads(threads);
    const core::SingleWalkOutput out =
        core::single_random_walk(net, 5, 1500, params, diameter);
    std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
        positions(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (const core::WalkPosition& p : out.positions[v]) {
        positions[v].emplace_back(p.walk, p.step);
      }
    }
    if (threads == kThreadCounts[0]) {
      baseline_destination = out.result.destination;
      baseline_messages = out.result.stats.messages;
      baseline_rounds = out.result.stats.rounds;
      baseline_positions = std::move(positions);
      continue;
    }
    EXPECT_EQ(out.result.destination, baseline_destination)
        << "threads=" << threads;
    EXPECT_EQ(out.result.stats.messages, baseline_messages)
        << "threads=" << threads;
    EXPECT_EQ(out.result.stats.rounds, baseline_rounds)
        << "threads=" << threads;
    EXPECT_EQ(positions, baseline_positions) << "threads=" << threads;
  }
}

TEST(Determinism, ServiceBatchBitIdentical) {
  Rng graph_rng(707);
  const Graph g = gen::random_regular(96, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  std::vector<service::WalkRequest> requests;
  Rng workload_rng(88);
  for (int i = 0; i < 10; ++i) {
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>(workload_rng.next_below(g.node_count())),
        256u << (i % 3), 1 + static_cast<std::uint32_t>(i % 2), false});
  }

  std::vector<std::vector<NodeId>> baseline_destinations;
  std::uint64_t baseline_messages = 0;
  std::uint64_t baseline_rounds = 0;
  for (const unsigned threads : kThreadCounts) {
    congest::Network net(g, 99);
    net.set_threads(threads);
    service::WalkService svc(net, diameter);
    EXPECT_EQ(net.threads(), threads);
    const service::BatchReport report = svc.serve(requests);
    std::vector<std::vector<NodeId>> destinations;
    for (const service::RequestResult& r : report.results) {
      destinations.push_back(r.destinations);
    }
    EXPECT_GT(report.stats.wall_ms, 0.0);
    EXPECT_EQ(report.stats.threads, threads);
    if (threads == kThreadCounts[0]) {
      baseline_destinations = std::move(destinations);
      baseline_messages = report.stats.messages;
      baseline_rounds = report.stats.rounds;
      continue;
    }
    EXPECT_EQ(destinations, baseline_destinations) << "threads=" << threads;
    EXPECT_EQ(report.stats.messages, baseline_messages)
        << "threads=" << threads;
    EXPECT_EQ(report.stats.rounds, baseline_rounds) << "threads=" << threads;
  }
}

TEST(Determinism, SkewedTopologyTracesInvariantAcrossExecutorConfigs) {
  Rng pl_rng(909);
  struct Family {
    const char* name;
    Graph graph;
  };
  const Family families[] = {
      {"star", gen::star(96)},
      {"lollipop", gen::lollipop(24, 48)},
      {"power_law", gen::power_law(96, 3, pl_rng)},
  };

  for (const Family& family : families) {
    std::vector<std::vector<std::uint64_t>> baseline_trace;
    congest::RunStats baseline;
    for (const unsigned threads : kThreadCounts) {
      congest::Network net(family.graph, 4321);
      net.set_threads(threads);
      TracingStorm protocol(family.graph.node_count());
      const congest::RunStats stats = net.run(protocol);
      if (threads == kThreadCounts[0]) {
        baseline_trace = protocol.trace();
        baseline = stats;
        continue;
      }
      EXPECT_EQ(protocol.trace(), baseline_trace)
          << family.name << " threads=" << threads;
      EXPECT_EQ(stats.rounds, baseline.rounds)
          << family.name << " threads=" << threads;
      EXPECT_EQ(stats.messages, baseline.messages)
          << family.name << " threads=" << threads;
      EXPECT_EQ(stats.max_backlog, baseline.max_backlog)
          << family.name << " threads=" << threads;
    }
  }
}

TEST(Determinism, SkewedWalkEndpointsInvariantAcrossExecutorConfigs) {
  // A serviced batch on the lollipop: walks pile into the clique, so the
  // clique's shards carry most of the work while the endpoints must not
  // move.
  const Graph g = gen::lollipop(24, 48);
  const std::uint32_t diameter = exact_diameter(g);

  std::vector<service::WalkRequest> requests;
  Rng workload_rng(55);
  for (int i = 0; i < 8; ++i) {
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>(workload_rng.next_below(g.node_count())),
        256u << (i % 3), 1 + static_cast<std::uint32_t>(i % 2), false});
  }

  std::vector<std::vector<NodeId>> baseline_destinations;
  std::uint64_t baseline_messages = 0;
  std::uint64_t baseline_rounds = 0;
  for (const unsigned threads : kThreadCounts) {
    congest::Network net(g, 777);
    net.set_threads(threads);
    service::WalkService svc(net, diameter);
    const service::BatchReport report = svc.serve(requests);
    std::vector<std::vector<NodeId>> destinations;
    for (const service::RequestResult& r : report.results) {
      destinations.push_back(r.destinations);
    }
    if (threads == kThreadCounts[0]) {
      baseline_destinations = std::move(destinations);
      baseline_messages = report.stats.messages;
      baseline_rounds = report.stats.rounds;
      continue;
    }
    EXPECT_EQ(destinations, baseline_destinations) << "threads=" << threads;
    EXPECT_EQ(report.stats.messages, baseline_messages)
        << "threads=" << threads;
    EXPECT_EQ(report.stats.rounds, baseline_rounds) << "threads=" << threads;
  }
}

TEST(Determinism, TracingOnDoesNotPerturbExecution) {
  // The obs invariant: observation never branches execution. The UNTRACED
  // 1-thread run is the baseline; every traced thread count (metrics
  // registry armed too) must reproduce it bit-for-bit.
  Rng graph_rng(1010);
  const Graph g = gen::random_regular(96, 4, graph_rng);

  std::vector<std::vector<std::uint64_t>> baseline_trace;
  congest::RunStats baseline;
  {
    congest::Network net(g, 4242);
    net.set_threads(1);
    TracingStorm protocol(g.node_count());
    baseline = net.run(protocol);
    baseline_trace = protocol.trace();
  }

  const std::string trace_file =
      ::testing::TempDir() + "obs_determinism_trace.json";
  for (const unsigned threads : kThreadCounts) {
    obs::Tracer::instance().enable(trace_file);
    obs::Registry::global().set_enabled(true);
    congest::Network net(g, 4242);
    net.set_threads(threads);
    TracingStorm protocol(g.node_count());
    const congest::RunStats stats = net.run(protocol);
    obs::Tracer::instance().disable();
    obs::Tracer::instance().flush();
    obs::Registry::global().set_enabled(false);
    obs::Registry::global().reset();
    EXPECT_EQ(protocol.trace(), baseline_trace) << "traced threads=" << threads;
    EXPECT_EQ(stats.rounds, baseline.rounds) << "traced threads=" << threads;
    EXPECT_EQ(stats.messages, baseline.messages)
        << "traced threads=" << threads;
    EXPECT_EQ(stats.max_backlog, baseline.max_backlog)
        << "traced threads=" << threads;
  }
}

TEST(Determinism, TracedServiceBatchBitIdentical) {
  // Same invariant through the service layer: a tracer armed for the
  // service's lifetime must not move a single walk destination.
  Rng graph_rng(1111);
  const Graph g = gen::random_regular(96, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  std::vector<service::WalkRequest> requests;
  Rng workload_rng(66);
  for (int i = 0; i < 8; ++i) {
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>(workload_rng.next_below(g.node_count())),
        256u << (i % 3), 1 + static_cast<std::uint32_t>(i % 2), false});
  }

  const std::string trace_file =
      ::testing::TempDir() + "obs_determinism_service.json";
  auto serve_once = [&](unsigned threads, bool traced) {
    if (traced) obs::Tracer::instance().enable(trace_file);
    congest::Network net(g, 2025);
    net.set_threads(threads);
    service::WalkService svc(net, diameter);
    const service::BatchReport report = svc.serve(requests);
    if (traced) {
      obs::Tracer::instance().disable();
      obs::Tracer::instance().flush();
    }
    std::vector<std::vector<NodeId>> destinations;
    for (const service::RequestResult& r : report.results) {
      destinations.push_back(r.destinations);
    }
    return std::make_tuple(std::move(destinations), report.stats.messages,
                           report.stats.rounds);
  };

  const auto baseline = serve_once(1, /*traced=*/false);
  for (const unsigned threads : kThreadCounts) {
    const auto traced = serve_once(threads, /*traced=*/true);
    EXPECT_EQ(traced, baseline) << "traced threads=" << threads;
  }
}

}  // namespace
}  // namespace drw
