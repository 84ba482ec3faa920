// Concurrent-stitching experiment (acceptance gate for the multi-protocol
// round multiplexer):
//
//   A batch of independent long walks is stitched two ways from the same
//   prepared inventory: kSerial (the conflict-aware schedule, one lane per
//   Network::run) and kMux (the same schedule with every non-conflicting
//   group executed as one multiplexed run). Two gates:
//
//   * Round fusion (deterministic, binds on EVERY host): mux-of-8 must cut
//     the stitch-phase round count >= 2x vs the serial schedule. Rounds
//     are the paper's currency and independent of host load, so this gate
//     arms CI even on small shared runners.
//   * Wall clock (hardware-gated, mirroring bench_skew's ladder): >= 1.5x
//     over sequential stitching at 8 threads on >= 8-hw-thread hosts --
//     fused waves are wide enough to keep every shard's worker busy,
//     sequential traversals are not. On 4..7-thread hosts the calibrated
//     floor is 1.0x at the native width ("multiplexing must not
//     pessimize"): the per-round mux bookkeeping costs a few percent that
//     narrower pools cannot always win back, so the speedup claim there is
//     carried by the deterministic round gate. Trajectory-only below 4.
//
//   kMux results must be bit-identical to kSerial (same destinations,
//   same per-walk stats) -- the lane-isolation invariant, re-checked here
//   on the bench workload, with per-walk ("per-lane") round/message
//   counts emitted into BENCH_mux.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "service/batch_scheduler.hpp"

namespace {

using namespace drw;

constexpr double kRoundFusionGate = 2.0;   ///< serial/mux stitch rounds
constexpr double kWallGate8 = 1.5;         ///< serial/mux wall @8t, hw >= 8
constexpr double kWallFloorMid = 1.0;      ///< same at native width, 4..7 hw
constexpr unsigned kWidth = 8;             ///< mux lanes
constexpr std::uint64_t kWalks = 16;
constexpr std::uint64_t kLength = 4096;

struct ModeResult {
  std::vector<NodeId> destinations;
  std::vector<std::uint64_t> walk_rounds;    ///< per lane (walk)
  std::vector<std::uint64_t> walk_messages;  ///< per lane (walk)
  std::uint64_t batch_rounds = 0;
  std::uint64_t stitch_rounds = 0;  ///< batch minus phase1/tails/regen
  std::uint64_t stitches = 0;
  std::uint64_t groups = 0;
  std::uint64_t lanes = 0;
  std::uint64_t conflicts = 0;
  double wall_ms = 0.0;
};

/// One full serve of the batch in the given mode, on a fresh engine with a
/// fresh (deterministically re-prepared) inventory; only the scheduler run
/// is timed, Phase 1 is identical warmup for every mode.
ModeResult run_mode(const Graph& g, std::uint32_t diameter,
                    const std::vector<service::WalkRequest>& requests,
                    service::MuxMode mode, unsigned threads) {
  congest::Network net(g, 515151);
  net.set_threads(threads);
  core::StitchEngine engine(net, core::Params::paper(), diameter);
  engine.prepare(kWalks, kLength);
  if (engine.naive_mode()) {
    std::fprintf(stderr, "bench_mux: workload fell into naive mode\n");
    std::exit(1);
  }

  service::MuxOptions options;
  options.mode = mode;
  options.width = kWidth;
  service::BatchScheduler scheduler(engine);
  const auto start = std::chrono::steady_clock::now();
  const service::BatchScheduler::Outcome out =
      scheduler.run(requests, 0, options);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ModeResult r;
  for (const service::RequestResult& rr : out.results) {
    r.destinations.insert(r.destinations.end(), rr.destinations.begin(),
                          rr.destinations.end());
    r.walk_rounds.push_back(rr.stats.rounds);
    r.walk_messages.push_back(rr.stats.messages);
  }
  r.batch_rounds = out.stats.rounds;
  const std::uint64_t overhead = out.counters.phase1.rounds +
                                 out.tail_stats.rounds +
                                 out.regen_stats.rounds;
  r.stitch_rounds =
      out.stats.rounds > overhead ? out.stats.rounds - overhead : 0;
  r.stitches = out.counters.stitches;
  r.groups = out.mux_groups;
  r.lanes = out.mux_lanes;
  r.conflicts = out.mux_conflicts;
  r.wall_ms = wall_ms;
  return r;
}

/// Best-of-3 wall time (shared runners hiccup); same-seed reps double as a
/// determinism check.
ModeResult run_mode_best(const Graph& g, std::uint32_t diameter,
                         const std::vector<service::WalkRequest>& requests,
                         service::MuxMode mode, unsigned threads) {
  ModeResult best = run_mode(g, diameter, requests, mode, threads);
  for (int rep = 0; rep < 2; ++rep) {
    ModeResult again = run_mode(g, diameter, requests, mode, threads);
    if (again.destinations != best.destinations) {
      std::fprintf(stderr, "bench_mux: same-seed reps diverged\n");
      std::exit(1);
    }
    if (again.wall_ms < best.wall_ms) best = std::move(again);
  }
  return best;
}

int run_experiment() {
  Rng graph_rng(808);
  const Graph g = gen::random_regular(2048, 6, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  // 16 independent long walks from spread-out sources: several stitches
  // per walk, connectors rarely colliding -- the workload the conflict
  // rule should multiplex almost perfectly.
  std::vector<service::WalkRequest> requests;
  for (std::uint64_t i = 0; i < kWalks; ++i) {
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>((i * 127) % g.node_count()), kLength, 1, false});
  }

  bench::banner(
      "MUX / concurrent cross-walk stitching vs sequential",
      "16 stitched walks of length 4096: the conflict-aware schedule run "
      "as mux-of-8 groups (one Network::run per wave) vs one lane at a "
      "time; mux must fuse stitch rounds >=2x and results must match the "
      "serial schedule exactly");

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned wall_threads = hw >= 8 ? 8 : (hw >= 1 ? hw : 1);

  // Deterministic comparison at 1 thread (round counts are
  // thread-invariant; these runs also give the 1-thread wall trajectory).
  const ModeResult serial1 = run_mode_best(g, diameter, requests,
                                           service::MuxMode::kSerial, 1);
  const ModeResult mux1 = run_mode_best(g, diameter, requests,
                                        service::MuxMode::kMux, 1);

  // Lane isolation on the bench workload: the mux must reproduce the
  // serial schedule bit-for-bit.
  const bool identical = mux1.destinations == serial1.destinations &&
                         mux1.walk_rounds == serial1.walk_rounds &&
                         mux1.walk_messages == serial1.walk_messages &&
                         mux1.stitches == serial1.stitches;

  // Wall comparison at the gated width. On a 1-thread host the sweep
  // point IS the 1-thread run already measured -- reuse it instead of
  // re-serving the batch nine more times (same policy as bench_service's
  // 1-core skip).
  const ModeResult serial_w =
      wall_threads == 1 ? serial1
                        : run_mode_best(g, diameter, requests,
                                        service::MuxMode::kSerial,
                                        wall_threads);
  const ModeResult mux_w =
      wall_threads == 1 ? mux1
                        : run_mode_best(g, diameter, requests,
                                        service::MuxMode::kMux, wall_threads);

  const double round_fusion =
      mux1.stitch_rounds == 0
          ? 0.0
          : static_cast<double>(serial1.stitch_rounds) /
                static_cast<double>(mux1.stitch_rounds);
  const double wall_speedup =
      mux_w.wall_ms == 0.0 ? 0.0 : serial_w.wall_ms / mux_w.wall_ms;

  bench::Table table({"mode", "stitch rounds", "batch rounds", "waves",
                      "conflicts", "wall ms (1t)",
                      "wall ms (" + std::to_string(wall_threads) + "t)"});
  table.add_row({"serial", bench::fmt_u64(serial1.stitch_rounds),
                 bench::fmt_u64(serial1.batch_rounds),
                 bench::fmt_u64(serial1.groups),
                 bench::fmt_u64(serial1.conflicts),
                 bench::fmt_double(serial1.wall_ms, 1),
                 bench::fmt_double(serial_w.wall_ms, 1)});
  table.add_row({"mux-of-8", bench::fmt_u64(mux1.stitch_rounds),
                 bench::fmt_u64(mux1.batch_rounds),
                 bench::fmt_u64(mux1.groups),
                 bench::fmt_u64(mux1.conflicts),
                 bench::fmt_double(mux1.wall_ms, 1),
                 bench::fmt_double(mux_w.wall_ms, 1)});
  table.print();

  bench::JsonReport json("mux");
  json.add("walks", kWalks);
  json.add("length", kLength);
  json.add("width", static_cast<std::uint64_t>(kWidth));
  json.add("hw_threads", static_cast<std::uint64_t>(hw));
  json.add("wall_threads", static_cast<std::uint64_t>(wall_threads));
  json.add("stitch_rounds_serial", serial1.stitch_rounds);
  json.add("stitch_rounds_mux", mux1.stitch_rounds);
  json.add("batch_rounds_mux", mux1.batch_rounds);
  json.add("mux_waves", mux1.groups);
  json.add("mux_lanes", mux1.lanes);
  json.add("mux_conflicts", mux1.conflicts);
  json.add("stitches", mux1.stitches);
  json.add("round_fusion", round_fusion);
  json.add("round_fusion_gate", kRoundFusionGate);
  json.add("wall_ms_serial_t1", serial1.wall_ms);
  json.add("wall_ms_mux_t1", mux1.wall_ms);
  json.add("wall_ms_serial_tw", serial_w.wall_ms);
  json.add("wall_ms_mux_tw", mux_w.wall_ms);
  json.add("wall_speedup", wall_speedup);
  json.add("wall_gate8", kWallGate8);
  json.add("wall_floor_mid", kWallFloorMid);
  json.add("deterministic", identical ? 1 : 0);
  // Per-lane (per-walk) trajectories: how evenly the per-walk cost spreads.
  for (std::size_t i = 0; i < mux1.walk_rounds.size(); ++i) {
    json.add("walk" + std::to_string(i) + "_rounds", mux1.walk_rounds[i]);
    json.add("walk" + std::to_string(i) + "_messages",
             mux1.walk_messages[i]);
  }

  // Gate ladder (mirrors bench_skew): the deterministic round-fusion gate
  // binds everywhere; wall gates bind only where the host can express them.
  const bool enforce8 = hw >= 8;
  const bool enforce_mid = !enforce8 && hw >= 4;
  const bool pass_rounds = round_fusion >= kRoundFusionGate;
  const bool pass8 = !enforce8 || wall_speedup >= kWallGate8;
  const bool pass_mid = !enforce_mid || wall_speedup >= kWallFloorMid;
  std::printf(
      "acceptance: mux == serial schedule: %s; stitch-round fusion %.2fx "
      "(>=%.1fx gate %s); wall mux-vs-serial @%ut %.2fx (>=%.1fx gate %s; "
      ">=%.2fx floor %s)\n",
      identical ? "PASS" : "FAIL", round_fusion, kRoundFusionGate,
      pass_rounds ? "PASS" : "FAIL", wall_threads, wall_speedup, kWallGate8,
      !enforce8 ? "SKIP, <8 hw threads" : (pass8 ? "PASS" : "FAIL"),
      kWallFloorMid,
      !enforce_mid
          ? (enforce8 ? "SKIP, 8t gate binds" : "SKIP, <4 hw threads")
          : (pass_mid ? "PASS" : "FAIL"));
  json.write();
  return identical && pass_rounds && pass8 && pass_mid ? 0 : 1;
}

}  // namespace

int main() { return run_experiment(); }
