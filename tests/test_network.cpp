#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "congest/mux.hpp"
#include "graph/generators.hpp"

namespace drw::congest {
namespace {

/// Sends one token back and forth `hops` times between the ends of an edge.
class PingPong final : public Protocol {
 public:
  explicit PingPong(std::uint64_t hops) : remaining_(hops) {}
  void on_round(Context& ctx) override {
    if (ctx.round() == 0) {
      if (ctx.self() == 0 && remaining_ > 0) {
        ctx.send(0, Message{1, {remaining_ - 1, 0, 0, 0}});
      }
      return;
    }
    for (const Delivery& d : ctx.inbox()) {
      if (d.msg.f[0] > 0) {
        ctx.send(ctx.slot_of(d.from), Message{1, {d.msg.f[0] - 1, 0, 0, 0}});
      } else {
        finished_ = true;
      }
    }
  }
  bool finished_ = false;
  std::uint64_t remaining_;
};

TEST(Network, PingPongRoundCount) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  PingPong protocol(5);
  const RunStats stats = net.run(protocol);
  EXPECT_TRUE(protocol.finished_);
  // Each hop is one CONGEST round (compute + send + delivery).
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_EQ(stats.messages, 5u);
  EXPECT_EQ(stats.max_backlog, 1u);
}

TEST(Network, DoNothingProtocolCostsZeroRounds) {
  const Graph g = gen::cycle(5);
  Network net(g, 1);
  class Idle final : public Protocol {
    void on_round(Context&) override {}
  } idle;
  const RunStats stats = net.run(idle);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.messages, 0u);
}

/// Node 0 sends `count` messages to the same neighbor in round 0; the edge
/// can deliver only one per round, so the backlog drains over `count` rounds.
class Burst final : public Protocol {
 public:
  explicit Burst(std::uint64_t count) : count_(count) {}
  void on_round(Context& ctx) override {
    if (ctx.round() == 0 && ctx.self() == 0) {
      for (std::uint64_t i = 0; i < count_; ++i) {
        ctx.send(0, Message{1, {i, 0, 0, 0}});
      }
    }
    // Only node 1 writes the counter (shard-safety: no cross-node writes).
    if (ctx.self() != 0) received_ += ctx.inbox().size();
  }
  std::uint64_t count_;
  std::uint64_t received_ = 0;
};

TEST(Network, CongestionCostsRounds) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  Burst protocol(10);
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(protocol.received_, 10u);
  // One message per edge per round: 10 transmission rounds.
  EXPECT_EQ(stats.rounds, 10u);
  EXPECT_EQ(stats.max_backlog, 10u);
}

TEST(Network, ParallelEdgesDoNotCongest) {
  // A star center sending one message per spoke uses one round of delivery.
  const Graph g = gen::star(9);
  Network net(g, 1);
  class Scatter final : public Protocol {
   public:
    Scatter() : received_(9, 0) {}
    void on_round(Context& ctx) override {
      if (ctx.round() == 0 && ctx.self() == 0) {
        for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
          ctx.send(slot, Message{1, {slot, 0, 0, 0}});
        }
      }
      // Node-indexed tally (shard-safety: spokes run on other workers).
      received_[ctx.self()] += ctx.inbox().size();
    }
    std::uint64_t total() const {
      std::uint64_t sum = 0;
      for (std::size_t v = 1; v < received_.size(); ++v) {
        sum += received_[v];
      }
      return sum;
    }
    std::vector<std::uint64_t> received_;
  } protocol;
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(protocol.total(), 8u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.max_backlog, 1u);
}

TEST(Network, WakeOnlyRoundsCount) {
  const Graph g = gen::path(3);
  Network net(g, 1);
  class Sleeper final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.self() != 1) return;
      if (wakes_ < 4) {
        ++wakes_;
        ctx.wake_me();
      }
    }
    int wakes_ = 0;
  } protocol;
  const RunStats stats = net.run(protocol);
  EXPECT_EQ(protocol.wakes_, 4);
  // Wakes scheduled in rounds 0..3, firing in rounds 1..4.
  EXPECT_EQ(stats.rounds, 4u);
}

TEST(Network, DeterministicAcrossIdenticalRuns) {
  const Graph g = gen::cycle(8);
  class RandomHops final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.round() == 0 && ctx.self() == 0) {
        ctx.send(static_cast<std::uint32_t>(ctx.rng().next_below(2)),
                 Message{1, {20, 0, 0, 0}});
        return;
      }
      for (const Delivery& d : ctx.inbox()) {
        if (d.msg.f[0] == 0) {
          last_ = ctx.self();
          continue;
        }
        ctx.send(static_cast<std::uint32_t>(ctx.rng().next_below(2)),
                 Message{1, {d.msg.f[0] - 1, 0, 0, 0}});
      }
    }
    NodeId last_ = kInvalidNode;
  };
  Network net1(g, 99);
  Network net2(g, 99);
  RandomHops p1;
  RandomHops p2;
  const RunStats s1 = net1.run(p1);
  const RunStats s2 = net2.run(p2);
  EXPECT_EQ(p1.last_, p2.last_);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
}

TEST(Network, MaxRoundsGuardThrowsAndNetworkStaysReusable) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  class Forever final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.round() == 0 && ctx.self() == 0) {
        ctx.send(0, Message{});
        return;
      }
      for (const Delivery& d : ctx.inbox()) {
        ctx.send(ctx.slot_of(d.from), Message{});
      }
    }
  } protocol;
  EXPECT_THROW(net.run(protocol, 100), std::runtime_error);

  // The aborted run's in-flight message and backlogs must not leak into
  // the next protocol hosted on the same network.
  PingPong fresh(4);
  const RunStats stats = net.run(fresh);
  EXPECT_TRUE(fresh.finished_);
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_EQ(stats.messages, 4u);
}

TEST(Network, ThrowMidComputeLeavesNoStaleDeliveries) {
  // Center 0 scatters to both spokes; in round 1 the lower spoke throws
  // BEFORE the higher spoke's inbox is processed, stranding a delivery
  // that the abort cleanup must sweep.
  const Graph g = gen::star(3);
  Network net(g, 1);
  class ThrowOnFirstSpoke final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.round() == 0) {
        if (ctx.self() == 0) {
          for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
            ctx.send(slot, Message{1, {slot, 0, 0, 0}});
          }
        }
        return;
      }
      throw std::logic_error("boom");
    }
  } bad;
  EXPECT_THROW(net.run(bad), std::logic_error);

  class ExpectCleanSlate final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      EXPECT_TRUE(ctx.inbox().empty());
    }
  } probe;
  const RunStats stats = net.run(probe);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.rounds, 0u);
}

TEST(Network, SendToNonNeighborThrows) {
  const Graph g = gen::path(3);
  Network net(g, 1);
  class Bad final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.round() == 0 && ctx.self() == 0) {
        ctx.send_to(2, Message{});  // 0 and 2 are not adjacent on a path
      }
    }
  } protocol;
  EXPECT_THROW(net.run(protocol), std::logic_error);
}

TEST(Network, DoneStopsEarlyAndStateResets) {
  const Graph g = gen::path(2);
  Network net(g, 1);
  class StopEarly final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.round() == 0 && ctx.self() == 0) {
        // Queue junk that would take many rounds to drain.
        for (int i = 0; i < 50; ++i) ctx.send(0, Message{});
        done_ = true;
      }
    }
    bool done() const override { return done_; }
    bool done_ = false;
  } protocol;
  const RunStats stats = net.run(protocol);
  EXPECT_LE(stats.rounds, 1u);

  // The network must be reusable with a clean slate afterwards.
  PingPong fresh(3);
  const RunStats stats2 = net.run(fresh);
  EXPECT_TRUE(fresh.finished_);
  EXPECT_EQ(stats2.messages, 3u);
}

TEST(Network, DeliveryIdentifiesSender) {
  const Graph g = gen::cycle(4);
  Network net(g, 1);
  class Check final : public Protocol {
   public:
    Check() : checked_(4, 0) {}
    void on_round(Context& ctx) override {
      if (ctx.round() == 0) {
        for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
          ctx.send(slot, Message{1, {ctx.self(), 0, 0, 0}});
        }
        return;
      }
      for (const Delivery& d : ctx.inbox()) {
        EXPECT_EQ(d.from, static_cast<NodeId>(d.msg.f[0]));
        ++checked_[ctx.self()];  // node-indexed (shard-safety)
      }
    }
    std::vector<int> checked_;
  } protocol;
  net.run(protocol);
  int total = 0;
  for (const int c : protocol.checked_) total += c;
  EXPECT_EQ(total, 8);
}

/// Payload words on both sides of the 32-bit boundary.
constexpr std::array<std::uint64_t, 4> kWideWords = {
    0, 0xffffffffull, 0x100000000ull, ~0ull};
constexpr std::uint32_t kBurst = 4;  ///< messages per edge per lane

/// Message k of a node's burst: rotation k of kWideWords, with the sender,
/// lane and k encoded in the type so the receiver can check all three.
Message wide_message(NodeId from, unsigned lane, std::uint32_t k) {
  Message m;
  m.type = static_cast<std::uint16_t>(((from + 1) << 8) | (lane << 4) | k);
  for (std::size_t i = 0; i < m.f.size(); ++i) {
    m.f[i] = kWideWords[(i + k) % kWideWords.size()];
  }
  return m;
}

/// Round 0: every node sends kBurst wide messages on every edge, so all but
/// the first per edge wait in the arena. Receivers record every delivery.
class WideBurst final : public Protocol {
 public:
  WideBurst(std::size_t n, unsigned lane) : lane_(lane), received_(n) {}
  void on_round(Context& ctx) override {
    if (ctx.round() == 0) {
      for (std::uint32_t slot = 0; slot < ctx.degree(); ++slot) {
        for (std::uint32_t k = 0; k < kBurst; ++k) {
          ctx.send(slot, wide_message(ctx.self(), lane_, k));
        }
      }
      return;
    }
    for (const Delivery& d : ctx.inbox()) received_[ctx.self()].push_back(d);
  }

  /// Every node got each neighbor's burst, in order, bit-exact.
  void expect_bursts_exact(const Graph& g) const {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(received_[v].size(), g.degree(v) * kBurst) << "node " << v;
      std::vector<std::uint32_t> next(g.degree(v), 0);
      for (const Delivery& d : received_[v]) {
        const std::uint32_t slot = g.slot_of(v, d.from);
        ASSERT_LT(slot, g.degree(v)) << "node " << v;
        const Message want = wide_message(d.from, lane_, next[slot]++);
        EXPECT_EQ(d.msg.type, want.type) << "node " << v;
        EXPECT_EQ(d.msg.f, want.f) << "node " << v;
        EXPECT_EQ(d.msg.lane, lane_) << "node " << v;
      }
    }
  }

 private:
  unsigned lane_;
  std::vector<std::vector<Delivery>> received_;
};

// Payload words >= 2^32 survive staging, the direct first delivery and the
// arena backlog unchanged, solo and on four mux lanes, at 1 and 4 threads.
TEST(Network, WidePayloadWordsArriveBitExact) {
  const Graph g = gen::grid(6, 6);
  const std::uint64_t per_lane = g.directed_edge_count() * kBurst;
  constexpr unsigned kLanes = 4;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Network net(g, 5);
    net.set_threads(threads);

    WideBurst solo(g.node_count(), 0);
    EXPECT_EQ(net.run(solo).messages, per_lane);
    solo.expect_bursts_exact(g);

    ProtocolMux mux(g.node_count());
    std::vector<WideBurst> lanes;
    lanes.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) {
      lanes.emplace_back(g.node_count(), l);
      mux.add_lane(lanes.back(), nullptr);
    }
    EXPECT_EQ(net.run_multiplexed(mux, kLanes).messages, kLanes * per_lane);
    for (const WideBurst& lane : lanes) lane.expect_bursts_exact(g);
  }
}

}  // namespace
}  // namespace drw::congest
