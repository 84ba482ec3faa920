// EdgeArena edge cases, exercised directly (the engine suites only reach
// the arena through full protocol runs): FIFO order across chunk
// boundaries, the depth returned by push (1 == edge was idle), interleaved
// push/pop with head and tail in different chunks, per-lane virtual-edge
// isolation, chunk recycling through the free list and
// clear_queue/all_empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "congest/edge_arena.hpp"
#include "congest/message.hpp"

namespace drw::congest {
namespace {

/// Distinct, recognizable message per sequence number.
Message msg(std::uint64_t i) {
  return Message{static_cast<std::uint16_t>(i % 7 + 1),
                 {i, i * 3 + 1, i ^ 0x5a5a, ~i & 0xffffffffull},
                 static_cast<std::uint16_t>(i % 3)};
}

void expect_msg_eq(const Message& got, const Message& want,
                   std::uint64_t seq) {
  EXPECT_EQ(got.type, want.type) << "seq " << seq;
  EXPECT_EQ(got.f, want.f) << "seq " << seq;
  EXPECT_EQ(got.lane, want.lane) << "seq " << seq;
}

// A backlog much deeper than kChunkCap must link chunks and still pop in
// exact FIFO order; push reports the depth after each append.
TEST(EdgeArena, FifoOrderAcrossChunkBoundaries) {
  EdgeArena arena;
  arena.reset(/*edge_count=*/4, /*shard_count=*/1);
  const std::uint32_t eid = 2;
  const std::uint32_t total = EdgeArena::kChunkCap * 3 + 5;  // 4 chunks

  for (std::uint32_t i = 0; i < total; ++i) {
    EXPECT_EQ(arena.push(0, eid, msg(i)), i + 1);
  }
  EXPECT_EQ(arena.size(eid), total);
  EXPECT_FALSE(arena.all_empty());

  for (std::uint32_t i = 0; i < total; ++i) {
    expect_msg_eq(arena.pop(0, eid), msg(i), i);
    EXPECT_EQ(arena.size(eid), total - i - 1);
  }
  EXPECT_TRUE(arena.all_empty());
}

// Depth 1 means "the edge was idle" -- the signal the transmit fast path
// uses to deliver directly instead of queuing. It must come back after
// every full drain, including one that ends mid-chunk.
TEST(EdgeArena, PushDepthSignalsIdleEdgeAfterEveryDrain) {
  EdgeArena arena;
  arena.reset(3, 1);

  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(arena.push(0, 1, msg(cycle)), 1u) << "cycle " << cycle;
    EXPECT_EQ(arena.push(0, 1, msg(cycle + 10)), 2u);
    expect_msg_eq(arena.pop(0, 1), msg(cycle), cycle);
    expect_msg_eq(arena.pop(0, 1), msg(cycle + 10), cycle + 10);
    EXPECT_EQ(arena.size(1), 0u);
  }
  EXPECT_TRUE(arena.all_empty());
}

// Interleaved push/pop that keeps the queue deeper than one chunk: the head
// and tail advance through different chunks while FIFO order holds.
TEST(EdgeArena, InterleavedPushPopStraddlesChunks) {
  EdgeArena arena;
  arena.reset(2, 1);
  const std::uint32_t eid = 0;

  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  // Ramp up past two chunk boundaries, then slide a deep window along.
  for (; next_push < EdgeArena::kChunkCap * 2 + 3; ++next_push) {
    arena.push(0, eid, msg(next_push));
  }
  for (int step = 0; step < 100; ++step) {
    expect_msg_eq(arena.pop(0, eid), msg(next_pop), next_pop);
    ++next_pop;
    arena.push(0, eid, msg(next_push++));
    arena.push(0, eid, msg(next_push++));
    expect_msg_eq(arena.pop(0, eid), msg(next_pop), next_pop);
    ++next_pop;
  }
  while (next_pop < next_push) {
    expect_msg_eq(arena.pop(0, eid), msg(next_pop), next_pop);
    ++next_pop;
  }
  EXPECT_TRUE(arena.all_empty());
}

// The mux layer addresses lane backlogs as virtual edges veid = lane * E +
// eid. Each virtual edge is an independent FIFO: interleaving pushes across
// lanes of the same physical edge must not mix their orders or sizes.
TEST(EdgeArena, VirtualLaneEdgesAreIndependentFifos) {
  constexpr std::uint32_t kEdges = 6;
  constexpr std::uint32_t kLanes = 3;
  EdgeArena arena;
  arena.reset(static_cast<std::size_t>(kEdges) * kLanes, 1);
  const std::uint32_t base_eid = 4;

  // Round-robin the lanes so every chunk allocation interleaves with the
  // other lanes' allocations from the shared shard pool.
  const std::uint32_t per_lane = EdgeArena::kChunkCap + 7;
  for (std::uint32_t i = 0; i < per_lane; ++i) {
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      const std::uint32_t veid = lane * kEdges + base_eid;
      EXPECT_EQ(arena.push(0, veid, msg(lane * 1000 + i)), i + 1);
    }
  }
  // Drain in a different lane order than the pushes used.
  for (std::uint32_t lane = kLanes; lane-- > 0;) {
    const std::uint32_t veid = lane * kEdges + base_eid;
    EXPECT_EQ(arena.size(veid), per_lane);
    for (std::uint32_t i = 0; i < per_lane; ++i) {
      expect_msg_eq(arena.pop(0, veid), msg(lane * 1000 + i), i);
    }
  }
  EXPECT_TRUE(arena.all_empty());
}

// clear_queue drops exactly one edge's backlog (multi-chunk included) and
// leaves the others intact; its recycled chunks are reused by later pushes.
TEST(EdgeArena, ClearQueueDropsOneBacklogAndRecyclesChunks) {
  EdgeArena arena;
  arena.reset(4, 1);
  for (std::uint32_t i = 0; i < EdgeArena::kChunkCap * 2 + 1; ++i) {
    arena.push(0, 0, msg(i));
  }
  arena.push(0, 3, msg(77));

  arena.clear_queue(0, 0);
  EXPECT_EQ(arena.size(0), 0u);
  EXPECT_EQ(arena.size(3), 1u);
  EXPECT_FALSE(arena.all_empty());

  // The cleared edge restarts as idle, on chunks recycled via the free
  // list, with no leftovers from the dropped backlog.
  EXPECT_EQ(arena.push(0, 0, msg(500)), 1u);
  expect_msg_eq(arena.pop(0, 0), msg(500), 500);
  expect_msg_eq(arena.pop(0, 3), msg(77), 77);
  EXPECT_TRUE(arena.all_empty());

  // clear_queue on an already-empty edge is a no-op.
  arena.clear_queue(0, 1);
  EXPECT_TRUE(arena.all_empty());
}

// reset() drops everything: queued messages, chunk pools, old geometry.
TEST(EdgeArena, ResetDropsAllStateForNewGeometry) {
  EdgeArena arena;
  arena.reset(8, 2);
  arena.push(1, 7, msg(1));
  arena.push(0, 0, msg(2));
  EXPECT_FALSE(arena.all_empty());

  arena.reset(2, 1);
  EXPECT_TRUE(arena.all_empty());
  EXPECT_EQ(arena.size(0), 0u);
  EXPECT_EQ(arena.push(0, 1, msg(9)), 1u);
  expect_msg_eq(arena.pop(0, 1), msg(9), 9);
}

}  // namespace
}  // namespace drw::congest
