// EdgeArena / transmit-staging microbenchmark (perf trajectory for the
// fused transmit path):
//
//   * arena push+pop round trips at depth 1 and depth 8 -- depth 1 is the
//     per-message cost the OLD engine paid for every delivery (push into
//     the per-edge FIFO, pop straight back out); the fused engine only
//     pays it on the congested long tail, so this number is the per-token
//     overhead the rearchitecture removed;
//   * staging (56-byte PendingSend-shaped records) measured stage ->
//     replay -> inbox delivery, i.e. the full life of a staged message.
//
// Wall numbers are trajectory-only (BENCH_arena.json, diffed by
// tools/bench_diff.py against bench/baselines/BENCH_arena.json).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "congest/edge_arena.hpp"
#include "congest/message.hpp"
#include "util/rng.hpp"

namespace {

using namespace drw;
using congest::Delivery;
using congest::EdgeArena;
using congest::Message;

constexpr std::uint32_t kEdges = 60000;  ///< n=10^4 deg-6 directed edges
constexpr std::uint32_t kStaged = 1u << 20;
constexpr int kReps = 5;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// The staging record's shape (mirrors the network's private PendingSend:
/// the virtual edge id + the full 48-byte Message).
struct GenericSend {
  std::uint32_t eid = 0;
  Message msg;
};

Message token_message(Rng& rng) {
  return Message{static_cast<std::uint16_t>(1 + rng.next_below(4)),
                 {rng.next_below(kEdges), rng.next_below(1u << 20),
                  rng.next_below(1u << 20), rng.next_below(64)}};
}

/// Arena push+pop round trips at fixed backlog depth; returns ns/message.
double time_arena_depth(std::uint32_t depth, std::uint64_t& checksum) {
  EdgeArena arena;
  arena.reset(kEdges, 1);
  Rng rng(99);
  Message m = token_message(rng);
  double best_ms = 1e18;
  const std::uint32_t sweeps = 32 / depth;  // ~2M msgs/rep either way
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
      for (std::uint32_t eid = 0; eid < kEdges; ++eid) {
        for (std::uint32_t d = 0; d < depth; ++d) {
          m.f[3] = d;
          checksum += arena.push(0, eid, m);
        }
        for (std::uint32_t d = 0; d < depth; ++d) {
          checksum += arena.pop(0, eid).f[3];
        }
      }
    }
    const double ms = ms_since(t0);
    if (ms < best_ms) best_ms = ms;
  }
  const double msgs = double(sweeps) * kEdges * depth;
  return best_ms * 1e6 / msgs;
}

/// Stage 56-byte records, then replay them into an inbox of Delivery
/// values (the transmit data flow). Returns ns/message.
double time_stage_generic(std::uint64_t& checksum) {
  Rng rng(7);
  std::vector<Message> inputs;
  inputs.reserve(kStaged);
  for (std::uint32_t i = 0; i < kStaged; ++i) {
    inputs.push_back(token_message(rng));
  }
  std::vector<GenericSend> staged;
  std::vector<Delivery> inbox;
  double best_ms = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    staged.clear();
    for (std::uint32_t i = 0; i < kStaged; ++i) {
      staged.push_back(GenericSend{
          static_cast<std::uint32_t>(inputs[i].f[0]), inputs[i]});
    }
    inbox.clear();
    for (const GenericSend& s : staged) {
      inbox.push_back(Delivery{s.msg, s.eid});
      checksum += s.msg.f[1];
    }
    const double ms = ms_since(t0);
    if (ms < best_ms) best_ms = ms;
  }
  checksum += inbox.size();
  return best_ms * 1e6 / double(kStaged);
}

int run_trajectory(bench::JsonReport& json) {
  bench::banner("ARENA-1 delivery-path throughput",
                "Per-message cost of the arena FIFO round trip vs the "
                "staged send path (best of 5 reps).");
  std::uint64_t checksum = 0;
  const double depth1 = time_arena_depth(1, checksum);
  const double depth8 = time_arena_depth(8, checksum);
  const double generic = time_stage_generic(checksum);

  bench::Table table({"path", "ns/msg"});
  table.add_row({"arena push+pop depth1", bench::fmt_double(depth1)});
  table.add_row({"arena push+pop depth8", bench::fmt_double(depth8)});
  table.add_row({"stage+replay (56B)", bench::fmt_double(generic)});
  table.print();
  std::printf("checksum %llu\n", static_cast<unsigned long long>(checksum));

  json.add("arena_push_pop_depth1_ns", depth1);
  json.add("arena_push_pop_depth8_ns", depth8);
  json.add("stage_generic_ns", generic);
  json.add("stage_generic_bytes_per_msg",
           static_cast<std::uint64_t>(sizeof(GenericSend)));
  json.add("edges", static_cast<std::uint64_t>(kEdges));
  json.add("staged_messages", static_cast<std::uint64_t>(kStaged));
  json.add("hw_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  return 0;
}

void BM_ArenaPushPopDepth1(benchmark::State& state) {
  EdgeArena arena;
  arena.reset(kEdges, 1);
  Rng rng(3);
  const Message m = token_message(rng);
  std::uint32_t eid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.push(0, eid, m));
    benchmark::DoNotOptimize(arena.pop(0, eid));
    eid = eid + 1 < kEdges ? eid + 1 : 0;
  }
}
BENCHMARK(BM_ArenaPushPopDepth1);

}  // namespace

int main(int argc, char** argv) {
  drw::bench::JsonReport json("arena");
  const int rc = run_trajectory(json);
  json.write();
  if (rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
