// Crash-safe service snapshots (drw::resil): checkpointed warm restart.
//
// The paper's Phase-1 short-walk inventory is *reusable state* -- the whole
// point of MANY-RANDOM-WALKS amortization -- so a serving process should not
// re-pay preparation rounds after a restart. A ServiceSnapshot captures
// everything a WalkService consumes across batch boundaries:
//
//   * StitchEngine::EngineState (short-walk store, trajectories, lambda,
//     prepared envelope) -- the release_state()/adopt_state() boundary;
//   * the roots of the engine's BFS tree cache (an n-bit bitset);
//   * the engine's connector-visit counters and the WalkInventory
//     supply/demand image (replenishment planning is part of the sampling
//     stream: it decides which GET-MORE-WALKS runs consume coins);
//   * every node's RNG state (4 x u64 xoshiro words) and the service's
//     next walk id (walk ids key per-walk lane RNG streams);
//   * a graph fingerprint (structure + master seed) so a snapshot can never
//     be adopted by a different network.
//
// Restoring a snapshot therefore yields *bit-identical* destinations, paths
// and per-request stats for all subsequent batches versus the uninterrupted
// run, at every thread count x mux width.
//
// On-disk format (version 2, native-endian, single-host checkpoint):
//
//   [0]  magic   "DRWSNAP1"            (8 bytes)
//   [8]  version u32 | reserved u32
//   [16] payload size u64
//   [24] CRC-32 (IEEE) of payload u32 | reserved u32
//   [32] payload...
//
// Version 2 appends the engine's cached BFS roots to the version-1 payload
// as an n-bit bitset; restore rebuilds those trees locally and charges
// them no rounds, so the warm-restarted counters match the uninterrupted
// run. A version-1 file still restores, with an empty tree cache.
//
// Writes are atomic: payload assembled in memory -> <path>.tmp -> fsync ->
// rename(tmp, path) -> fsync(dir). A crash at any point leaves either the
// previous complete snapshot or a stray .tmp; a torn/corrupt/truncated file
// fails the magic/version/size/CRC checks and read_snapshot_file reports
// the reason instead of returning garbage -- callers degrade to cold start.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/random_walks.hpp"
#include "graph/graph.hpp"

namespace drw::resil {

inline constexpr std::uint32_t kSnapshotVersion = 2;

/// The WalkInventory image rides along as raw arrays so resil does not
/// depend on the service layer (the service copies in/out).
struct InventoryImage {
  std::vector<std::uint64_t> unused;
  std::vector<std::uint64_t> demand;
  std::vector<std::uint64_t> last_visits;
  std::uint64_t total_unused = 0;
  std::uint64_t total_demand = 0;
};

/// Everything a WalkService needs to warm-start bit-identically.
struct ServiceSnapshot {
  std::uint64_t graph_fingerprint = 0;
  std::uint32_t next_walk_id = 0;
  core::StitchEngine::EngineState engine;
  std::vector<std::uint64_t> connector_visits;
  /// Roots of the engine's BFS tree cache, ascending.
  std::vector<NodeId> tree_roots;
  InventoryImage inventory;
  std::vector<std::array<std::uint64_t, 4>> rng_states;  // per node
};

/// Structure + seed fingerprint: FNV-1a over the node count, every
/// adjacency slot and the master seed. Two networks share a fingerprint
/// iff a snapshot taken on one replays exactly on the other.
std::uint64_t graph_fingerprint(const Graph& g, std::uint64_t seed);

/// CRC-32 (IEEE 802.3, reflected) -- the snapshot checksum.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Atomically writes `snap` to `path` (tmp + fsync + rename). Throws
/// std::runtime_error on IO failure. Failpoints: "snapshot.write"
/// (short_write truncates the payload -- a simulated torn file that the
/// CRC must catch) and "snapshot.commit" (before the rename -- the
/// kill-mid-snapshot window for tools/crash_harness.py).
void write_snapshot_file(const std::string& path, const ServiceSnapshot& snap);

struct ReadOutcome {
  std::optional<ServiceSnapshot> snapshot;  ///< empty on any failure
  std::string error;  ///< human-readable reason when snapshot is empty
};

/// Reads and validates a snapshot. Never throws on bad *content*: a
/// missing/torn/corrupt/mismatched file comes back as an empty snapshot
/// plus the detection reason, so callers can log it and cold-start.
ReadOutcome read_snapshot_file(const std::string& path);

/// Generation naming for rotated snapshots: slot 0 is `path` itself (the
/// single-file layout), slot k >= 1 is `path.k` with 1 the newest
/// generation and higher slots older.
std::string snapshot_generation_path(const std::string& path,
                                     std::uint32_t slot);

/// Shifts generations one slot up (`path.k` -> `path.k+1` for
/// k = keep-1 .. 1, the oldest falling off), making room for a fresh
/// atomic write at `path.1`. Missing generations are skipped silently; a
/// crash mid-rotation leaves every surviving file a complete, validly
/// checksummed snapshot (renames never tear contents), so restore's
/// newest-valid scan still succeeds.
void rotate_snapshot_files(const std::string& path, std::uint32_t keep);

}  // namespace drw::resil
