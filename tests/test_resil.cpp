// Resilience tier-1 (drw::resil): warm-restart bit-equivalence across
// thread count x mux width, torn/corrupt-snapshot detection
// degrading to cold start, deterministic failpoints (zero-overhead while
// disarmed), exception-safe Network reuse after a throwing protocol, and
// service-boundary validation caps with structured per-request errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "core/random_walks.hpp"
#include "core/walk_state.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "resil/failpoint.hpp"
#include "resil/snapshot.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"

namespace drw {
namespace {

using service::BatchReport;
using service::RequestStatus;
using service::ServiceConfig;
using service::WalkRequest;
using service::WalkService;

const unsigned kThreadCounts[] = {1, 2, 8};

std::string tmp_path(const char* name) { return ::testing::TempDir() + name; }

ServiceConfig resil_config(unsigned mux) {
  ServiceConfig config;
  config.params = core::Params::paper();
  config.params.lambda_override = 4;  // tiny lambda: stitching-heavy batches
  config.enable_paths = true;
  config.mux_width = mux;
  return config;
}

// Heterogeneous batches: mixed sources, lengths, counts and recorded paths,
// so a snapshot must carry trajectories, inventory and RNG streams to
// reproduce them.
std::vector<WalkRequest> batch_one() {
  return {{1, 33, 3, true}, {9, 25, 2, false}, {4, 18, 2, true}};
}
std::vector<WalkRequest> batch_two() {
  return {{2, 28, 2, true}, {0, 33, 3, false}, {7, 12, 2, true}};
}

/// Bit-equivalence of two batch reports: destinations, paths, per-request
/// stats/counters and every deterministic batch aggregate (wall_ms is the
/// one legitimately nondeterministic field and is excluded).
void expect_reports_identical(const BatchReport& got, const BatchReport& ref,
                              const std::string& label) {
  ASSERT_EQ(got.results.size(), ref.results.size()) << label;
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    const auto& a = got.results[i];
    const auto& b = ref.results[i];
    EXPECT_EQ(a.status, b.status) << label << " request " << i;
    EXPECT_EQ(a.destinations, b.destinations) << label << " request " << i;
    EXPECT_EQ(a.paths, b.paths) << label << " request " << i;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << label << " request " << i;
    EXPECT_EQ(a.stats.messages, b.stats.messages)
        << label << " request " << i;
    EXPECT_EQ(a.counters.lambda, b.counters.lambda)
        << label << " request " << i;
    EXPECT_EQ(a.counters.stitches, b.counters.stitches)
        << label << " request " << i;
    EXPECT_EQ(a.counters.sample_calls, b.counters.sample_calls)
        << label << " request " << i;
    EXPECT_EQ(a.counters.get_more_walks_calls, b.counters.get_more_walks_calls)
        << label << " request " << i;
    EXPECT_EQ(a.counters.naive_tail_steps, b.counters.naive_tail_steps)
        << label << " request " << i;
  }
  EXPECT_EQ(got.stats.rounds, ref.stats.rounds) << label;
  EXPECT_EQ(got.stats.messages, ref.stats.messages) << label;
  EXPECT_EQ(got.walks, ref.walks) << label;
  EXPECT_EQ(got.lambda, ref.lambda) << label;
  EXPECT_EQ(got.stitches, ref.stitches) << label;
  EXPECT_EQ(got.inventory_hits, ref.inventory_hits) << label;
  EXPECT_EQ(got.engine_gmw_calls, ref.engine_gmw_calls) << label;
  EXPECT_EQ(got.replenishments, ref.replenishments) << label;
  EXPECT_EQ(got.replenished_walks, ref.replenished_walks) << label;
  EXPECT_EQ(got.mux_groups, ref.mux_groups) << label;
  EXPECT_EQ(got.mux_lanes, ref.mux_lanes) << label;
  EXPECT_EQ(got.mux_conflicts, ref.mux_conflicts) << label;
  EXPECT_EQ(got.rejected, ref.rejected) << label;
}

// ------------------------------------------------------------ warm restart

// The acceptance gate: snapshot after batch 1, restore into a fresh
// service, serve batch 2 -- bit-identical to the uninterrupted run at every
// thread count x mux width. Also cross-checks that all configs sharing a
// mux width agree with each other (threads never change results; mux width
// legitimately does).
TEST(Resil, WarmRestartBitIdenticalAcrossThreadsAndMux) {
  Rng graph_rng(808);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_warm.snap");

  for (const unsigned mux : {1u, 4u}) {
    bool have_mux_ref = false;
    BatchReport mux_ref;
    for (const unsigned threads : kThreadCounts) {
      const std::string label =
          "mux=" + std::to_string(mux) + " threads=" + std::to_string(threads);

      // Uninterrupted run: batch 1, checkpoint, batch 2 (the reference).
      congest::Network net_a(g, 4242);
      net_a.set_threads(threads);
      WalkService a(net_a, diameter, resil_config(mux));
      a.serve(batch_one());
      a.save_snapshot(path);
      const BatchReport ref = a.serve(batch_two());

      // Warm restart: fresh network + service, adopt the checkpoint,
      // serve the same batch 2.
      congest::Network net_b(g, 4242);
      net_b.set_threads(threads);
      WalkService b(net_b, diameter, resil_config(mux));
      ASSERT_TRUE(b.restore_snapshot(path)) << label;
      const BatchReport got = b.serve(batch_two());
      expect_reports_identical(got, ref, label);

      // Threads are not part of the result contract: every config at this
      // mux width must agree.
      if (!have_mux_ref) {
        mux_ref = ref;
        have_mux_ref = true;
      } else {
        expect_reports_identical(ref, mux_ref, label + " vs mux baseline");
      }
    }
  }
  std::remove(path.c_str());
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// Writes an edited snapshot file with its payload CRC recomputed, so only
/// the checks behind the CRC can reject it.
void write_rechecksummed(const std::string& path, std::vector<char> file) {
  const std::uint32_t crc = resil::crc32(file.data() + 32, file.size() - 32);
  std::memcpy(file.data() + 24, &crc, sizeof crc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

/// Offsets into a snapshot file of an n-node service, found by walking its
/// payload: the fixed fields, the RNG words, four u64 arrays, per node a
/// count and 17-byte tokens (source, seq, length, arrival_slot, used), the
/// generation counter, per node a count and 16-byte routing records (gen,
/// hop, prev_slot, next_slot), and the cached-root bitset.
struct PayloadOffsets {
  std::size_t token = 0;  ///< the first held token
  std::size_t next_generation = 0;
  std::size_t record = 0;  ///< the first routing record
  NodeId record_node = kInvalidNode;  ///< the node that stores it
  std::size_t roots = 0;  ///< the bitset, at its word count
};

PayloadOffsets payload_offsets(const std::vector<char>& file, std::size_t n) {
  const auto u64_at = [&file](std::size_t offset) {
    std::uint64_t v = 0;
    std::memcpy(&v, file.data() + offset, sizeof v);
    return v;
  };
  PayloadOffsets out;
  std::size_t at = 32 + 56 + 32 * n;
  for (int array = 0; array < 4; ++array) at += 8 + 8 * u64_at(at);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t tokens = u64_at(at);
    if (tokens > 0 && out.token == 0) out.token = at + 8;
    at += 8 + 17 * tokens;
  }
  out.next_generation = at;
  at += 4;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t records = u64_at(at);
    if (records > 0 && out.record == 0) {
      out.record = at + 8;
      out.record_node = v;
    }
    at += 8 + 16 * records;
  }
  out.roots = at;
  return out;
}

// The snapshot carries the BFS tree cache's roots: a warm restart rebuilds
// exactly the trees the cache held at the checkpoint. A file whose bitset
// holds no root restores with an empty cache -- it rebuilds trees on first
// visit and pays those rounds, but serves the same walks.
TEST(Resil, SnapshotRestoresTheTreeCache) {
  Rng graph_rng(808);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_trees.snap");
  const std::string cold_path = tmp_path("drw_resil_trees_cold.snap");

  congest::Network net_a(g, 4242);
  WalkService a(net_a, diameter, resil_config(1));
  a.serve(batch_one());
  a.save_snapshot(path);
  const congest::BfsTreeCache& held = a.engine().tree_cache();
  const std::vector<NodeId> roots = held.roots();
  ASSERT_FALSE(roots.empty());

  congest::Network net_b(g, 4242);
  WalkService b(net_b, diameter, resil_config(1));
  ASSERT_TRUE(b.restore_snapshot(path));
  const congest::BfsTreeCache& rebuilt = b.engine().tree_cache();
  EXPECT_EQ(rebuilt.roots(), roots);
  for (const NodeId root : roots) {
    ASSERT_NE(rebuilt.find(root), nullptr);
    EXPECT_EQ(*rebuilt.find(root), *held.find(root)) << "root " << root;
  }
  // The rebuild is local: it is charged to no engine total.
  EXPECT_EQ(b.engine().total_stats().rounds, 0u);
  EXPECT_EQ(b.engine().total_stats().messages, 0u);
  const BatchReport warm = b.serve(batch_two());

  std::vector<char> file = read_bytes(path);
  const PayloadOffsets offsets = payload_offsets(file, g.node_count());
  const std::size_t words = (g.node_count() + 63) / 64;
  ASSERT_EQ(offsets.roots + 8 + 8 * words, file.size());
  std::fill(file.begin() + static_cast<std::ptrdiff_t>(offsets.roots + 8),
            file.end(), 0);
  write_rechecksummed(cold_path, file);
  congest::Network net_c(g, 4242);
  WalkService c(net_c, diameter, resil_config(1));
  ASSERT_TRUE(c.restore_snapshot(cold_path));
  EXPECT_EQ(c.engine().tree_cache().size(), 0u);
  const BatchReport got = c.serve(batch_two());
  ASSERT_EQ(got.results.size(), warm.results.size());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    EXPECT_EQ(got.results[i].destinations, warm.results[i].destinations)
        << "request " << i;
    EXPECT_EQ(got.results[i].paths, warm.results[i].paths) << "request " << i;
    for (const std::vector<NodeId>& walk : got.results[i].paths) {
      for (std::size_t s = 1; s < walk.size(); ++s) {
        EXPECT_TRUE(g.has_edge(walk[s - 1], walk[s]))
            << "request " << i << " step " << s;
      }
    }
  }
  EXPECT_EQ(got.stitches, warm.stitches);
  EXPECT_EQ(got.tree_builds + got.tree_reuses, got.stitches);
  EXPECT_GT(got.tree_builds, warm.tree_builds);
  EXPECT_GT(got.stats.messages, warm.stats.messages);
  std::remove(path.c_str());
  std::remove(cold_path.c_str());
}

// Drains source 5's Phase-1 pool, so GET-MORE-WALKS runs from it.
const std::vector<WalkRequest> kDrainSourceFive = {{5, 40, 6, true},
                                                   {5, 40, 6, false}};

// Since version 3 a file holds only what a replay can observe -- the
// unspent records of live generations, sorted -- so a warm-restarted
// service and the uninterrupted one checkpoint byte-identical files after
// the same batch, although only the uninterrupted one still stores
// tombstones and spent generations from before the restart.
TEST(Resil, SnapshotBytesAreAFunctionOfTheLogicalState) {
  Rng graph_rng(808);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string restart = tmp_path("drw_resil_bytes_restart.snap");
  const std::string path_a = tmp_path("drw_resil_bytes_a.snap");
  const std::string path_b = tmp_path("drw_resil_bytes_b.snap");
  const auto bytes = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  for (const unsigned mux : {1u, 4u}) {
    const std::string label = "mux=" + std::to_string(mux);
    congest::Network net_a(g, 4242);
    WalkService a(net_a, diameter, resil_config(mux));
    a.serve(kDrainSourceFive);
    a.save_snapshot(restart);
    a.serve(batch_two());
    a.save_snapshot(path_a);

    congest::Network net_b(g, 4242);
    WalkService b(net_b, diameter, resil_config(mux));
    ASSERT_TRUE(b.restore_snapshot(restart)) << label;
    b.serve(batch_two());
    b.save_snapshot(path_b);

    EXPECT_GT(a.engine().trajectories().gmw_record_count(),
              b.engine().trajectories().gmw_record_count())
        << label;
    EXPECT_EQ(bytes(path_a), bytes(path_b)) << label;
  }
  std::remove(restart.c_str());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// The snapshot-after-batch policy (ServiceConfig::snapshot_path) writes a
// checkpoint the moment a batch retires, and that checkpoint round-trips
// under concurrent stitching (mux_width > 1).
TEST(Resil, SnapshotAfterBatchPolicyRoundTripsUnderMux) {
  Rng graph_rng(515);
  const Graph g = gen::random_regular(48, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_policy.snap");
  std::remove(path.c_str());

  ServiceConfig config = resil_config(4);
  config.snapshot_path = path;
  congest::Network net_a(g, 99);
  net_a.set_threads(2);
  WalkService a(net_a, diameter, config);
  a.serve(batch_one());  // policy checkpoint fires here

  const resil::ReadOutcome outcome = resil::read_snapshot_file(path);
  ASSERT_TRUE(outcome.snapshot.has_value()) << outcome.error;
  EXPECT_EQ(outcome.snapshot->rng_states.size(), g.node_count());
  EXPECT_EQ(outcome.snapshot->inventory.unused.size(), g.node_count());

  // Restore BEFORE serving batch 2 on `a`: its policy would overwrite the
  // post-batch-1 checkpoint this test is about.
  congest::Network net_b(g, 99);
  net_b.set_threads(2);
  WalkService b(net_b, diameter, resil_config(4));
  ASSERT_TRUE(b.restore_snapshot(path));

  const BatchReport ref = a.serve(batch_two());
  const BatchReport got = b.serve(batch_two());
  expect_reports_identical(got, ref, "policy snapshot, mux=4");
  std::remove(path.c_str());
}

// ------------------------------------------------------ snapshot rotation

// snapshot_keep > 1: every checkpoint rotates path.1 (newest) .. path.N and
// restore walks them newest-first, falling back a generation per corrupt
// file, so losing the latest checkpoint costs one batch of warmth instead
// of a cold start. Generation by generation:
//   S1 = state after batch 1, S2 = after batch 2, S3 = after batch 3.
TEST(Resil, SnapshotRotationRestoresNewestValidGeneration) {
  Rng graph_rng(717);
  const Graph g = gen::random_regular(48, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_rotate.snap");
  const auto slot_path = [&](std::uint32_t slot) {
    return resil::snapshot_generation_path(path, slot);
  };
  for (std::uint32_t slot = 0; slot <= 3; ++slot) {
    std::remove(slot_path(slot).c_str());
  }
  const auto exists = [](const std::string& file) {
    return std::ifstream(file, std::ios::binary).good();
  };
  // Restoring services rotate-aware (snapshot_keep) but never checkpoint
  // themselves (no snapshot_path), so restores don't disturb the files.
  const auto restorer_config = [&]() {
    ServiceConfig config = resil_config(1);
    config.snapshot_keep = 3;
    return config;
  };

  ServiceConfig writer = resil_config(1);
  writer.snapshot_path = path;
  writer.snapshot_keep = 3;
  congest::Network net_a(g, 31);
  net_a.set_threads(2);
  WalkService a(net_a, diameter, writer);

  a.serve(batch_one());  // checkpoint S1 -> .1
  a.serve(batch_two());  // rotate (.1 -> .2), checkpoint S2 -> .1
  EXPECT_TRUE(exists(slot_path(1)));
  EXPECT_TRUE(exists(slot_path(2)));
  EXPECT_FALSE(exists(slot_path(3)));
  EXPECT_FALSE(exists(path)) << "rotation must not write the plain path";

  // Newest wins: a restore now adopts S2 (.1), so serving batch 3 matches
  // the uninterrupted run's batch 3. Restore BEFORE `a` serves it -- a's
  // policy rotates the files again the moment that batch retires.
  congest::Network net_b(g, 31);
  net_b.set_threads(2);
  WalkService b(net_b, diameter, restorer_config());
  ASSERT_TRUE(b.restore_snapshot(path));
  const BatchReport ref3 = a.serve(batch_one());  // S2 -> S3; .1=S3 .2=S2 .3=S1
  expect_reports_identical(b.serve(batch_one()), ref3, "newest generation");
  EXPECT_TRUE(exists(slot_path(3)));

  const auto corrupt = [&](const std::string& file) {
    std::fstream io(file,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(48);  // mid-payload: caught by the CRC
    char byte = 0;
    io.seekg(48);
    io.get(byte);
    byte ^= 0x20;
    io.seekp(48);
    io.put(byte);
  };

  // Corrupt .1 (S3): restore falls back to .2 = S2, so batch 3 replays
  // bit-identically to ref3 again.
  corrupt(slot_path(1));
  congest::Network net_c(g, 31);
  net_c.set_threads(2);
  WalkService c(net_c, diameter, restorer_config());
  ASSERT_TRUE(c.restore_snapshot(path));
  expect_reports_identical(c.serve(batch_one()), ref3,
                           "fallback to second generation");

  // Corrupt .2 (S2) as well: restore reaches .3 = S1, the state after
  // batch 1 -- from which batch_two replays a's second batch. That report
  // is recomputed from an independent uninterrupted run (a has moved on).
  congest::Network net_ref(g, 31);
  net_ref.set_threads(2);
  WalkService uninterrupted(net_ref, diameter, resil_config(1));
  uninterrupted.serve(batch_one());
  const BatchReport ref2 = uninterrupted.serve(batch_two());
  corrupt(slot_path(2));
  congest::Network net_d(g, 31);
  net_d.set_threads(2);
  WalkService d(net_d, diameter, restorer_config());
  ASSERT_TRUE(d.restore_snapshot(path));
  expect_reports_identical(d.serve(batch_two()), ref2,
                           "fallback to oldest generation");

  // Every generation corrupt: detected, cold start.
  corrupt(slot_path(3));
  congest::Network net_e(g, 31);
  net_e.set_threads(2);
  WalkService e(net_e, diameter, restorer_config());
  EXPECT_FALSE(e.restore_snapshot(path));

  for (std::uint32_t slot = 0; slot <= 3; ++slot) {
    std::remove(slot_path(slot).c_str());
  }
}

// Migration: a plain single-file checkpoint (written under keep == 1, the
// historical layout) still warm-starts a service configured with
// snapshot_keep > 1 -- the plain path is the last restore candidate.
TEST(Resil, SnapshotRotationFallsBackToPlainPathCheckpoint) {
  Rng graph_rng(818);
  const Graph g = gen::random_regular(48, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_migrate.snap");
  std::remove((path + ".1").c_str());

  congest::Network net_a(g, 13);
  net_a.set_threads(2);
  WalkService a(net_a, diameter, resil_config(1));
  a.serve(batch_one());
  a.save_snapshot(path);  // keep == 1: plain path, no generations

  ServiceConfig rotated = resil_config(1);
  rotated.snapshot_keep = 3;
  congest::Network net_b(g, 13);
  net_b.set_threads(2);
  WalkService b(net_b, diameter, rotated);
  ASSERT_TRUE(b.restore_snapshot(path));
  const BatchReport ref = a.serve(batch_two());
  expect_reports_identical(b.serve(batch_two()), ref,
                           "plain-path migration");
  std::remove(path.c_str());
}

// ------------------------------------------------- corruption -> cold start

// Every corruption mode must be *detected* (restore_snapshot returns false,
// service untouched) and must degrade to a working cold start, never UB.
TEST(Resil, CorruptSnapshotsAreDetectedAndDegradeToColdStart) {
  Rng graph_rng(616);
  const Graph g = gen::random_regular(48, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_corrupt.snap");

  congest::Network net_a(g, 7);
  net_a.set_threads(2);
  WalkService a(net_a, diameter, resil_config(1));
  a.serve(batch_one());
  a.save_snapshot(path);

  const auto write_bytes = [&](const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::vector<char> pristine = read_bytes(path);
  ASSERT_GT(pristine.size(), 64u);

  const auto expect_cold_start = [&](const std::string& why) {
    congest::Network net(g, 7);
    net.set_threads(2);
    WalkService s(net, diameter, resil_config(1));
    EXPECT_FALSE(s.restore_snapshot(path)) << why;
    // Cold start still serves correctly.
    const BatchReport report = s.serve({{3, 12, 2, false}});
    ASSERT_EQ(report.results.size(), 1u) << why;
    ASSERT_EQ(report.results[0].destinations.size(), 2u) << why;
    for (const NodeId d : report.results[0].destinations) {
      EXPECT_LT(d, g.node_count()) << why;
    }
  };

  {  // Payload bit flip: caught by the CRC.
    std::vector<char> bytes = pristine;
    bytes[48] = static_cast<char>(bytes[48] ^ 0x10);
    write_bytes(bytes);
    const resil::ReadOutcome rc = resil::read_snapshot_file(path);
    EXPECT_FALSE(rc.snapshot.has_value());
    EXPECT_NE(rc.error.find("checksum"), std::string::npos) << rc.error;
    expect_cold_start("payload bit flip");
  }
  {  // Last-byte bit flip (tail corruption).
    std::vector<char> bytes = pristine;
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    write_bytes(bytes);
    expect_cold_start("tail bit flip");
  }
  {  // Clobbered magic: not a snapshot at all.
    std::vector<char> bytes = pristine;
    bytes[0] = 'X';
    write_bytes(bytes);
    const resil::ReadOutcome rc = resil::read_snapshot_file(path);
    EXPECT_FALSE(rc.snapshot.has_value());
    EXPECT_NE(rc.error.find("magic"), std::string::npos) << rc.error;
    expect_cold_start("bad magic");
  }
  {  // Torn tail: file cut below the size the header promises.
    std::vector<char> bytes = pristine;
    bytes.resize(bytes.size() / 2);
    write_bytes(bytes);
    expect_cold_start("truncated file");
  }
  {  // Header cut mid-way.
    std::vector<char> bytes = pristine;
    bytes.resize(16);
    write_bytes(bytes);
    expect_cold_start("truncated header");
  }

  // Edits behind a recomputed CRC: only the version check and the bounds
  // checks of bind_to_graph() stand between them and a warm start.
  const PayloadOffsets offsets = payload_offsets(pristine, g.node_count());
  ASSERT_EQ(offsets.roots + 8 + 8 * ((g.node_count() + 63) / 64),
            pristine.size());
  ASSERT_GT(offsets.token, 0u);
  ASSERT_GT(offsets.record, 0u);
  std::uint32_t generations = 0;
  std::memcpy(&generations, pristine.data() + offsets.next_generation, 4);
  const auto forge_u32 = [&](std::size_t at, std::uint32_t value,
                             const std::string& reason) {
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + at, &value, sizeof value);
    write_rechecksummed(path, bytes);
    const resil::ReadOutcome rc = resil::read_snapshot_file(path);
    const std::string error =
        rc.snapshot.has_value()
            ? resil::bind_to_graph(g, /*recorded=*/true, *rc.snapshot)
            : rc.error;
    EXPECT_NE(error.find(reason), std::string::npos) << error;
    expect_cold_start(reason);
  };
  forge_u32(/*version=*/8, 3, "unsupported snapshot version 3");
  forge_u32(offsets.record + 12, g.degree(offsets.record_node),
            "routing record slot out of range");
  forge_u32(offsets.token, static_cast<std::uint32_t>(g.node_count()),
            "token out of range");
  // A generation the counter would hand out again.
  forge_u32(offsets.token + 4, generations, "token generation out of range");
  forge_u32(offsets.record, generations,
            "routing record generation out of range");

  write_bytes(pristine);
  {  // Fingerprint mismatch: same graph, different master seed.
    congest::Network net(g, 8);
    net.set_threads(2);
    WalkService s(net, diameter, resil_config(1));
    EXPECT_FALSE(s.restore_snapshot(path));
  }
  {  // Fingerprint salt: a paths snapshot must not warm-start a service
     // with paths disabled (and vice versa).
    congest::Network net(g, 7);
    ServiceConfig no_paths = resil_config(1);
    no_paths.enable_paths = false;
    net.set_threads(2);
    WalkService s(net, diameter, no_paths);
    EXPECT_FALSE(s.restore_snapshot(path));
  }
  std::remove(path.c_str());
  {  // Missing file.
    congest::Network net(g, 7);
    net.set_threads(2);
    WalkService s(net, diameter, resil_config(1));
    EXPECT_FALSE(s.restore_snapshot(path));
  }
}

TEST(Resil, SaveSnapshotRequiresAPreparedEngine) {
  const Graph g = gen::torus(4, 4);
  congest::Network net(g, 3);
  net.set_threads(1);
  WalkService s(net, exact_diameter(g), resil_config(1));
  EXPECT_THROW(s.save_snapshot(tmp_path("drw_resil_never.snap")),
               std::logic_error);
}

// --------------------------------------------------------------- failpoints

class ResilFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { resil::disarm_failpoints(); }
};

TEST_F(ResilFailpointTest, ShortWriteTornSnapshotFailsValidation) {
  Rng graph_rng(717);
  const Graph g = gen::random_regular(32, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);
  const std::string path = tmp_path("drw_resil_torn.snap");

  congest::Network net_a(g, 11);
  net_a.set_threads(1);
  WalkService a(net_a, diameter, resil_config(1));
  a.serve(batch_one());

  resil::arm_failpoints("snapshot.write@1:short_write");
  a.save_snapshot(path);  // writes a torn file: header promises more bytes
  EXPECT_EQ(resil::failpoint_hits("snapshot.write"), 1u);
  resil::disarm_failpoints();

  const resil::ReadOutcome rc = resil::read_snapshot_file(path);
  EXPECT_FALSE(rc.snapshot.has_value());
  EXPECT_FALSE(rc.error.empty());

  congest::Network net_b(g, 11);
  net_b.set_threads(1);
  WalkService b(net_b, diameter, resil_config(1));
  EXPECT_FALSE(b.restore_snapshot(path));
  // Cold start serves fine; an intact re-write then restores warm.
  b.serve(batch_one());
  a.save_snapshot(path);
  congest::Network net_c(g, 11);
  net_c.set_threads(1);
  WalkService c(net_c, diameter, resil_config(1));
  EXPECT_TRUE(c.restore_snapshot(path));
  std::remove(path.c_str());
}

TEST_F(ResilFailpointTest, ActionsFireAtTheConfiguredHitAndSpecsAreChecked) {
  resil::arm_failpoints("x@2:throw");
  EXPECT_FALSE(resil::failpoint("x"));  // hit 1 passes through
  EXPECT_THROW(resil::failpoint("x"), resil::InjectedFault);  // hit 2 fires
  EXPECT_FALSE(resil::failpoint("x"));  // one-shot: hit 3 passes again
  EXPECT_EQ(resil::failpoint_hits("x"), 3u);

  resil::arm_failpoints("y:short_write,z:delay_ms=1");
  EXPECT_TRUE(resil::failpoint("y"));   // site simulates a truncated write
  EXPECT_FALSE(resil::failpoint("y"));
  EXPECT_FALSE(resil::failpoint("z"));  // sleeps 1ms, then continues
  EXPECT_EQ(resil::failpoint_hits("y"), 2u);
  EXPECT_EQ(resil::failpoint_hits("never-armed"), 0u);

  EXPECT_THROW(resil::arm_failpoints("nonsense"), std::invalid_argument);
  EXPECT_THROW(resil::arm_failpoints("a@0:throw"), std::invalid_argument);
  EXPECT_THROW(resil::arm_failpoints("a@x:throw"), std::invalid_argument);
  EXPECT_THROW(resil::arm_failpoints("a@1:frobnicate"),
               std::invalid_argument);
  EXPECT_THROW(resil::arm_failpoints("a@1:delay_ms=oops"),
               std::invalid_argument);
}

TEST_F(ResilFailpointTest, ServiceBatchFaultLosesNoRequests) {
  Rng graph_rng(919);
  const Graph g = gen::random_regular(32, 4, graph_rng);
  congest::Network net(g, 13);
  net.set_threads(2);
  WalkService s(net, exact_diameter(g), resil_config(1));

  resil::arm_failpoints("service.batch@2:throw");
  s.serve({{0, 12, 2, false}});  // hit 1 passes
  EXPECT_THROW(s.serve({{1, 12, 2, false}}), resil::InjectedFault);
  resil::disarm_failpoints();

  // The fault fired before the batch was consumed: the request is still
  // pending and the next flush serves it.
  EXPECT_EQ(s.pending(), 1u);
  const BatchReport report = s.flush();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].request.source, NodeId{1});
  EXPECT_EQ(report.results[0].destinations.size(), 2u);
}

// -------------------------------------------- exception-safe Network reuse

/// Deterministic TTL-bounded flood that never touches ctx.rng(): its result
/// is identical on a freshly built network and on one that just aborted a
/// run, which is exactly the pool/arena-reuse property under test.
class Flood : public congest::Protocol {
 public:
  explicit Flood(std::size_t n) : sum_(n, 0) {}

  void on_round(congest::Context& ctx) override {
    if (ctx.round() == 0) {
      for (std::uint32_t s = 0; s < ctx.degree(); ++s) {
        ctx.send(s, congest::Message{1, {ctx.self() + 1ull, 3, 0, 0}});
      }
      return;
    }
    for (const congest::Delivery& d : ctx.inbox()) {
      sum_[ctx.self()] += d.msg.f[0] * (ctx.round() + 1);
      if (d.msg.f[1] > 0) {
        const auto slot = static_cast<std::uint32_t>(
            (d.msg.f[0] + ctx.round()) % ctx.degree());
        ctx.send(slot, congest::Message{1, {d.msg.f[0], d.msg.f[1] - 1, 0, 0}});
      }
    }
  }

  const std::vector<std::uint64_t>& sums() const { return sum_; }

 private:
  std::vector<std::uint64_t> sum_;
};

/// Flood whose callback throws from a worker thread mid-run.
class ThrowingFlood final : public Flood {
 public:
  explicit ThrowingFlood(std::size_t n) : Flood(n) {}
  void on_round(congest::Context& ctx) override {
    if (ctx.round() == 2 && ctx.self() == 17) {
      throw std::runtime_error("injected worker fault");
    }
    Flood::on_round(ctx);
  }
};

TEST(Resil, ThrowingWorkerCallbackPropagatesAndPoolStaysUsable) {
  Rng graph_rng(505);
  const Graph g = gen::random_regular(96, 4, graph_rng);

  congest::Network net(g, 1234);
  net.set_threads(8);

  // The first exception a worker throws surfaces from run()...
  ThrowingFlood bad(g.node_count());
  EXPECT_THROW(net.run(bad), std::runtime_error);
  // ...repeatably...
  ThrowingFlood bad2(g.node_count());
  EXPECT_THROW(net.run(bad2), std::runtime_error);

  // ...and the pool + arena stay usable: the next run on the SAME network
  // is bit-identical to a freshly constructed one.
  Flood reused(g.node_count());
  const congest::RunStats stats = net.run(reused);

  congest::Network fresh(g, 1234);
  fresh.set_threads(8);
  Flood baseline(g.node_count());
  const congest::RunStats fresh_stats = fresh.run(baseline);

  EXPECT_EQ(reused.sums(), baseline.sums());
  EXPECT_EQ(stats.rounds, fresh_stats.rounds);
  EXPECT_EQ(stats.messages, fresh_stats.messages);
  EXPECT_EQ(stats.max_backlog, fresh_stats.max_backlog);
}

TEST_F(ResilFailpointTest, NetworkPhaseFailpointsAbortRunsSafely) {
  Rng graph_rng(606);
  const Graph g = gen::random_regular(64, 4, graph_rng);
  congest::Network net(g, 77);
  net.set_threads(8);

  resil::arm_failpoints("net.round.compute@3:throw");
  Flood p1(g.node_count());
  EXPECT_THROW(net.run(p1), resil::InjectedFault);

  resil::arm_failpoints("net.round.transmit@1:throw");
  Flood p2(g.node_count());
  EXPECT_THROW(net.run(p2), resil::InjectedFault);
  resil::disarm_failpoints();

  Flood reused(g.node_count());
  const congest::RunStats stats = net.run(reused);
  congest::Network fresh(g, 77);
  fresh.set_threads(8);
  Flood baseline(g.node_count());
  const congest::RunStats fresh_stats = fresh.run(baseline);
  EXPECT_EQ(reused.sums(), baseline.sums());
  EXPECT_EQ(stats.messages, fresh_stats.messages);
}

// ------------------------------------------------------------ zero overhead

// The contract armed sites must not breach: a DISARMED process never enters
// the failpoint slow path -- a full serving workload crosses the
// service.batch + net.round.* + snapshot sites thousands of times and the
// slow-path entry counter stays flat (mirrors test_obs's discipline check).
TEST_F(ResilFailpointTest, DisarmedSitesStayOffTheSlowPath) {
  Rng graph_rng(404);
  const Graph g = gen::random_regular(48, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  resil::disarm_failpoints();
  const std::uint64_t before = resil::failpoint_slow_path_entries();
  std::vector<NodeId> disarmed_dests;
  {
    congest::Network net(g, 21);
    net.set_threads(2);
    WalkService s(net, diameter, resil_config(1));
    const BatchReport report = s.serve(batch_one());
    for (const auto& r : report.results) {
      disarmed_dests.insert(disarmed_dests.end(), r.destinations.begin(),
                            r.destinations.end());
    }
  }
  EXPECT_EQ(resil::failpoint_slow_path_entries(), before)
      << "disarmed failpoint sites must cost exactly one relaxed load";

  // Armed (with a site this workload never crosses): the slow path IS
  // entered, and results stay bit-identical -- observation never branches
  // execution.
  resil::arm_failpoints("unrelated.site@1:throw");
  std::vector<NodeId> armed_dests;
  {
    congest::Network net(g, 21);
    net.set_threads(2);
    WalkService s(net, diameter, resil_config(1));
    const BatchReport report = s.serve(batch_one());
    for (const auto& r : report.results) {
      armed_dests.insert(armed_dests.end(), r.destinations.begin(),
                         r.destinations.end());
    }
  }
  EXPECT_GT(resil::failpoint_slow_path_entries(), before);
  EXPECT_EQ(armed_dests, disarmed_dests);
}

// ------------------------------------------- engine state-handoff guards

TEST(Resil, ReleaseAndAdoptStateGuardRails) {
  const Graph g = gen::torus(4, 4);
  const std::uint32_t diameter = exact_diameter(g);
  core::Params params = core::Params::paper();
  params.lambda_override = 3;

  congest::Network net(g, 5);
  core::StitchEngine engine(net, params, diameter);
  // Never prepared: nothing to release.
  EXPECT_THROW(engine.release_state(), std::logic_error);

  engine.prepare(2, 12);
  ASSERT_TRUE(engine.prepared());
  ASSERT_FALSE(engine.naive_mode());
  core::StitchEngine::EngineState state = engine.release_state();
  EXPECT_FALSE(engine.prepared());
  // Double release.
  EXPECT_THROW(engine.release_state(), std::logic_error);

  {  // Node-count mismatch.
    core::StitchEngine::EngineState wrong;
    wrong.store = core::WalkStore(g.node_count() + 1);
    wrong.trajectories = core::TrajectoryStore(g.node_count() + 1);
    wrong.lambda = 3;
    wrong.prepared_l = 12;
    EXPECT_THROW(engine.adopt_state(std::move(wrong)), std::invalid_argument);
  }
  {  // lambda == 0 is never a valid prepared state.
    core::StitchEngine::EngineState zeroed;
    zeroed.store = core::WalkStore(g.node_count());
    zeroed.trajectories = core::TrajectoryStore(g.node_count());
    zeroed.lambda = 0;
    zeroed.prepared_l = 12;
    EXPECT_THROW(engine.adopt_state(std::move(zeroed)),
                 std::invalid_argument);
  }
  EXPECT_THROW(
      engine.restore_connector_visits(
          std::vector<std::uint64_t>(g.node_count() + 1)),
      std::invalid_argument);

  // The legitimate round-trip still works after all the failed adopts.
  engine.adopt_state(std::move(state));
  EXPECT_TRUE(engine.prepared());

  // A naive-mode engine (lambda > l) has no reusable state to hand off.
  core::Params naive_params = core::Params::paper();
  naive_params.lambda_override = 50;
  congest::Network naive_net(g, 5);
  core::StitchEngine naive_engine(naive_net, naive_params, diameter);
  naive_engine.prepare(1, 4);
  ASSERT_TRUE(naive_engine.naive_mode());
  EXPECT_THROW(naive_engine.release_state(), std::logic_error);
}

// --------------------------------------------------- boundary validation

TEST(Resil, RequestCapsComeBackAsStructuredStatuses) {
  Rng graph_rng(303);
  const Graph g = gen::random_regular(32, 4, graph_rng);
  const std::uint32_t diameter = exact_diameter(g);

  ServiceConfig config = resil_config(1);
  config.caps.max_count = 4;
  config.caps.max_length = 50;
  config.caps.max_batch_walks = 6;
  congest::Network net(g, 7);
  net.set_threads(2);
  WalkService s(net, diameter, config);

  const BatchReport report = s.serve({
      {0, 10, 5, false},   // count 5 > max_count 4
      {1, 100, 1, false},  // length 100 > max_length 50
      {2, 10, 4, false},   // ok: admits 4 of 6
      {3, 10, 3, false},   // 4 + 3 > max_batch_walks 6
      {4, 10, 2, false},   // ok: admits the remaining 2
  });

  ASSERT_EQ(report.results.size(), 5u);
  EXPECT_EQ(report.results[0].status, RequestStatus::kCountExceedsCap);
  EXPECT_EQ(report.results[1].status, RequestStatus::kLengthExceedsCap);
  EXPECT_EQ(report.results[2].status, RequestStatus::kOk);
  EXPECT_EQ(report.results[3].status, RequestStatus::kBatchCapExceeded);
  EXPECT_EQ(report.results[4].status, RequestStatus::kOk);
  EXPECT_EQ(report.rejected, 3u);
  EXPECT_EQ(report.walks, 6u);
  EXPECT_EQ(s.lifetime().rejected, 3u);

  // Rejected slots sample nothing but explain themselves; admitted slots
  // are served normally in their submission order.
  EXPECT_TRUE(report.results[0].destinations.empty());
  EXPECT_STREQ(report.results[0].error(), "count exceeds cap");
  EXPECT_STREQ(report.results[3].error(), "batch walk cap exceeded");
  EXPECT_EQ(report.results[2].destinations.size(), 4u);
  EXPECT_EQ(report.results[4].destinations.size(), 2u);
  for (const NodeId d : report.results[2].destinations) {
    EXPECT_LT(d, g.node_count());
  }
}

}  // namespace
}  // namespace drw
