#include "resil/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "resil/failpoint.hpp"

namespace drw::resil {

namespace {

constexpr char kMagic[8] = {'D', 'R', 'W', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderSize = 32;

// --- byte-stream helpers ---------------------------------------------------

struct Writer {
  std::vector<std::uint8_t> bytes;

  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
  }
  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void u64s(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::uint64_t));
  }
};

/// Bounds-checked reader; any overrun means a truncated/corrupt payload
/// (thrown as runtime_error, translated to a ReadOutcome error by the
/// caller -- it can only happen if the CRC was forged too).
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  void raw(void* out, std::size_t size) {
    if (static_cast<std::size_t>(end - p) < size) {
      throw std::runtime_error("payload truncated");
    }
    std::memcpy(out, p, size);
    p += size;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  /// Guards count fields before vector reserves: a forged count must fail
  /// as "truncated", not as a multi-GB allocation.
  std::uint64_t count(std::size_t elem_size) {
    const std::uint64_t n = u64();
    if (elem_size != 0 &&
        n > static_cast<std::uint64_t>(end - p) / elem_size) {
      throw std::runtime_error("payload truncated");
    }
    return n;
  }
  std::vector<std::uint64_t> u64s() {
    std::vector<std::uint64_t> v(count(sizeof(std::uint64_t)));
    raw(v.data(), v.size() * sizeof(std::uint64_t));
    return v;
  }
};

// --- trajectory (de)serialization -----------------------------------------
// Forward records are emitted per node as (key, count, records) groups in
// ascending key order: a group is one run of equal keys in the flat array
// sorted by (key, hop), its records ascending by hop, so reading the groups
// back in order restores the sorted array (version-1 files list a key's hops
// in Phase-1 arrival order, which is ascending).

void write_forward_side(
    Writer& w, const std::vector<std::vector<core::ForwardRecord>>& side) {
  for (const auto& records : side) {
    std::uint64_t groups = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i == 0 || records[i].key != records[i - 1].key) ++groups;
    }
    w.u64(groups);
    for (std::size_t i = 0; i < records.size();) {
      std::size_t end = i;
      while (end < records.size() && records[end].key == records[i].key) {
        ++end;
      }
      w.u64(records[i].key);
      w.u64(end - i);
      for (; i < end; ++i) {
        w.u32(records[i].hop);
        w.u32(records[i].next_slot);
      }
    }
  }
}

void read_forward_side(Reader& r,
                       std::vector<std::vector<core::ForwardRecord>>& side) {
  for (auto& records : side) {
    const std::uint64_t groups = r.count(/*key+count=*/16);
    for (std::uint64_t g = 0; g < groups; ++g) {
      const std::uint64_t key = r.u64();
      const std::uint64_t n = r.count(/*two u32s=*/8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t hop = r.u32();
        const std::uint32_t next_slot = r.u32();
        records.push_back(core::ForwardRecord{key, hop, next_slot});
      }
    }
  }
}

// GET-MORE-WALKS records (version 3): the generation counter, then per node
// the unspent records of the generations some held token still belongs to,
// stably sorted by (gen, hop). Tombstones, dead generations and the order
// concurrent runs appended in never reach the file, so its bytes are a
// function of the state a replay can observe.
void write_gmw_side(Writer& w, const core::TrajectoryStore& trajectories,
                    const std::vector<std::uint8_t>& live) {
  w.u32(trajectories.next_generation);
  std::vector<core::GmwRecord> kept;
  for (const auto& records : trajectories.gmw) {
    kept.clear();
    for (const core::GmwRecord& rec : records) {
      if (rec.next_slot != core::TrajectoryStore::kSpentSlot &&
          core::TrajectoryStore::is_live(live, rec.gen)) {
        kept.push_back(rec);
      }
    }
    std::stable_sort(kept.begin(), kept.end());
    w.u64(kept.size());
    for (const core::GmwRecord& rec : kept) {
      w.u32(rec.gen);
      w.u32(rec.hop);
      w.u32(rec.prev_slot);
      w.u32(rec.next_slot);
    }
  }
}

void read_gmw_side(Reader& r, core::TrajectoryStore& trajectories) {
  trajectories.next_generation = r.u32();
  for (auto& records : trajectories.gmw) {
    records.resize(r.count(/*four u32s=*/16));
    for (core::GmwRecord& rec : records) {
      rec.gen = r.u32();
      rec.hop = r.u32();
      rec.prev_slot = r.u32();
      rec.next_slot = r.u32();
    }
  }
}

// Versions 1 and 2 stored GET-MORE-WALKS hops as anonymous fragments keyed
// by (source, hop), per node in ascending key order, and their tokens all
// had seq 0. Each source's fragments become one generation whose id is the
// source; its seq-0 tokens join it (fix_legacy_generations), and new
// generations start above the legacy range, at n.
void read_legacy_fragments(Reader& r, core::TrajectoryStore& trajectories) {
  for (auto& records : trajectories.gmw) {
    const std::uint64_t entries = r.count(/*key+count=*/16);
    for (std::uint64_t e = 0; e < entries; ++e) {
      const std::uint64_t key = r.u64();
      const auto source = static_cast<std::uint32_t>(key >> 32);
      const auto hop = static_cast<std::uint32_t>(key);
      const std::uint64_t n = r.count(/*two u32s=*/8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t prev_slot = r.u32();
        const std::uint32_t next_slot = r.u32();
        records.push_back(core::GmwRecord{source, hop, prev_slot, next_slot});
      }
    }
  }
  trajectories.next_generation =
      static_cast<std::uint32_t>(trajectories.gmw.size());
}

void fix_legacy_generations(core::WalkStore& store) {
  for (auto& tokens : store.held) {
    for (core::HeldToken& t : tokens) {
      if (t.kind == core::WalkKind::kGetMore) t.seq = t.source;
    }
  }
}

// --- cached BFS roots: an n-bit bitset in u64 words (version >= 2) ---------

void write_root_bitset(Writer& w, std::size_t n,
                       const std::vector<NodeId>& roots) {
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  for (const NodeId root : roots) words[root / 64] |= 1ULL << (root % 64);
  w.u64s(words);
}

std::vector<NodeId> read_root_bitset(Reader& r, std::size_t n) {
  const std::vector<std::uint64_t> words = r.u64s();
  if (words.size() != (n + 63) / 64) {
    throw std::runtime_error("cached-root bitset size mismatch");
  }
  std::vector<NodeId> roots;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const std::size_t root = w * 64 + std::countr_zero(bits);
      if (root >= n) throw std::runtime_error("cached root out of range");
      roots.push_back(static_cast<NodeId>(root));
    }
  }
  return roots;
}

std::vector<std::uint8_t> encode_payload(const ServiceSnapshot& snap) {
  const std::size_t n = snap.engine.store.held.size();
  Writer w;
  w.u64(snap.graph_fingerprint);
  w.u64(n);
  w.u32(snap.engine.lambda);
  w.u32(snap.next_walk_id);
  w.u64(snap.engine.prepared_l);
  w.u64(snap.engine.prepared_k);
  w.u64(snap.inventory.total_unused);
  w.u64(snap.inventory.total_demand);
  for (const auto& state : snap.rng_states) {
    for (const std::uint64_t word : state) w.u64(word);
  }
  w.u64s(snap.connector_visits);
  w.u64s(snap.inventory.unused);
  w.u64s(snap.inventory.demand);
  w.u64s(snap.inventory.last_visits);
  for (const auto& held : snap.engine.store.held) {
    w.u64(held.size());
    for (const core::HeldToken& t : held) {
      w.u32(t.source);
      w.u32(t.seq);
      w.u32(t.length);
      w.u32(t.arrival_slot);
      w.u8(static_cast<std::uint8_t>(t.kind));
      w.u8(t.used ? 1 : 0);
    }
  }
  write_forward_side(w, snap.engine.trajectories.forward);
  write_gmw_side(w, snap.engine.trajectories,
                 snap.engine.store.live_generations(
                     snap.engine.trajectories.next_generation));
  write_root_bitset(w, n, snap.tree_roots);
  return std::move(w.bytes);
}

/// Decodes a payload of `version` (1 to 3). Versions 1 and 2 carry legacy
/// fragments (read_legacy_fragments); version 1 has no cached-root bitset
/// and restores with an empty tree cache.
ServiceSnapshot decode_payload(const std::uint8_t* data, std::size_t size,
                               std::uint32_t version) {
  Reader r{data, data + size};
  ServiceSnapshot snap;
  snap.graph_fingerprint = r.u64();
  const std::uint64_t n = r.count(/*>= 4 rng words*/ 32);
  snap.engine.lambda = r.u32();
  snap.next_walk_id = r.u32();
  snap.engine.prepared_l = r.u64();
  snap.engine.prepared_k = r.u64();
  snap.inventory.total_unused = r.u64();
  snap.inventory.total_demand = r.u64();
  snap.rng_states.resize(n);
  for (auto& state : snap.rng_states) {
    for (std::uint64_t& word : state) word = r.u64();
  }
  snap.connector_visits = r.u64s();
  snap.inventory.unused = r.u64s();
  snap.inventory.demand = r.u64s();
  snap.inventory.last_visits = r.u64s();
  snap.engine.store = core::WalkStore(n);
  for (auto& held : snap.engine.store.held) {
    held.resize(r.count(/*token bytes=*/18));
    for (core::HeldToken& t : held) {
      t.source = r.u32();
      t.seq = r.u32();
      t.length = r.u32();
      t.arrival_slot = r.u32();
      t.kind = static_cast<core::WalkKind>(r.u8());
      t.used = r.u8() != 0;
    }
  }
  core::TrajectoryStore& trajectories = snap.engine.trajectories;
  trajectories = core::TrajectoryStore(n);
  read_forward_side(r, trajectories.forward);
  if (version >= 3) {
    read_gmw_side(r, trajectories);
  } else {
    read_legacy_fragments(r, trajectories);
    fix_legacy_generations(snap.engine.store);
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto& records = trajectories.gmw[v];
    trajectories.gmw_unsorted[v] = !std::is_sorted(records.begin(),
                                                   records.end());
    trajectories.records_kept += records.size();
  }
  if (version >= 2) snap.tree_roots = read_root_bitset(r, n);
  if (r.p != r.end) throw std::runtime_error("trailing payload bytes");
  return snap;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // IEEE 802.3 reflected polynomial, slicing-by-8: eight derived tables let
  // the hot loop fold 8 input bytes per iteration instead of 1 (~5-8x on
  // the multi-MB payloads the CSR cache checksums). Bitwise identical to
  // the classic byte loop, which still handles the unaligned head/tail.
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint8_t* end = p + size;
  while (p < end && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  for (; p + 8 <= end; p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;  // little-endian hosts only (the endian tag enforces this)
    crc = tables[7][word & 0xFFu] ^ tables[6][(word >> 8) & 0xFFu] ^
          tables[5][(word >> 16) & 0xFFu] ^ tables[4][(word >> 24) & 0xFFu] ^
          tables[3][(word >> 32) & 0xFFu] ^ tables[2][(word >> 40) & 0xFFu] ^
          tables[1][(word >> 48) & 0xFFu] ^ tables[0][word >> 56];
  }
  while (p < end) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t graph_fingerprint(const Graph& g, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    mix(g.degree(v));
    for (const NodeId u : g.neighbors(v)) mix(u);
  }
  mix(seed);
  return h;
}

void write_snapshot_file(const std::string& path,
                         const ServiceSnapshot& snap) {
  std::vector<std::uint8_t> payload = encode_payload(snap);

  std::vector<std::uint8_t> file(kHeaderSize);
  std::memcpy(file.data(), kMagic, sizeof kMagic);
  const std::uint32_t version = kSnapshotVersion;
  std::memcpy(file.data() + 8, &version, 4);
  const std::uint64_t payload_size = payload.size();
  std::memcpy(file.data() + 16, &payload_size, 8);
  const std::uint32_t checksum = crc32(payload.data(), payload.size());
  std::memcpy(file.data() + 24, &checksum, 4);
  // A short_write arming truncates the payload AFTER the header promised
  // the full size: the torn file renames into place and the reader's
  // size/CRC validation must reject it.
  if (failpoint("snapshot.write")) payload.resize(payload.size() / 2);
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot open " + tmp + ": " +
                             std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < file.size()) {
    const ssize_t n = ::write(fd, file.data() + written,
                              file.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("snapshot: write to " + tmp + " failed: " +
                               std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("snapshot: fsync/close of " + tmp + " failed");
  }
  // The kill-mid-snapshot window: a crash here leaves the previous
  // complete snapshot in place plus a stray .tmp (never a torn snapshot).
  failpoint("snapshot.commit");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("snapshot: rename to " + path + " failed: " +
                             std::strerror(err));
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

ReadOutcome read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {std::nullopt, "cannot open " + path};
  }
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (in.bad()) return {std::nullopt, "read error on " + path};
  if (file.size() < kHeaderSize) {
    return {std::nullopt, "truncated header (" +
                              std::to_string(file.size()) + " bytes)"};
  }
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    return {std::nullopt, "bad magic (not a drw snapshot)"};
  }
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + 8, 4);
  if (version < 1 || version > kSnapshotVersion) {
    return {std::nullopt, "unsupported snapshot version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kSnapshotVersion) + ")"};
  }
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, file.data() + 16, 8);
  if (payload_size != file.size() - kHeaderSize) {
    return {std::nullopt,
            "payload size mismatch (header says " +
                std::to_string(payload_size) + ", file carries " +
                std::to_string(file.size() - kHeaderSize) + ")"};
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + 24, 4);
  const std::uint32_t actual_crc =
      crc32(file.data() + kHeaderSize, payload_size);
  if (stored_crc != actual_crc) {
    return {std::nullopt, "checksum mismatch (torn or corrupt snapshot)"};
  }
  try {
    return {decode_payload(file.data() + kHeaderSize, payload_size, version),
            ""};
  } catch (const std::exception& e) {
    return {std::nullopt, std::string("payload decode failed: ") + e.what()};
  }
}

std::string snapshot_generation_path(const std::string& path,
                                     std::uint32_t slot) {
  if (slot == 0) return path;
  return path + "." + std::to_string(slot);
}

void rotate_snapshot_files(const std::string& path, std::uint32_t keep) {
  // Oldest-first so every rename's destination slot is already vacated
  // (or about to be overwritten -- POSIX rename replaces atomically).
  // rename failures (typically ENOENT for not-yet-populated slots) are
  // deliberately ignored: rotation is best-effort bookkeeping; the write
  // that follows is the operation whose failure matters.
  for (std::uint32_t slot = keep; slot >= 2; --slot) {
    std::rename(snapshot_generation_path(path, slot - 1).c_str(),
                snapshot_generation_path(path, slot).c_str());
  }
}

}  // namespace drw::resil
