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

// Routing records: the generation counter, then per node the unspent records
// of the generations some held token still belongs to, stably sorted by
// (gen, hop). Tombstones, dead generations and the order concurrent runs
// appended in never reach the file, so its bytes are a function of the state
// a replay can observe.
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
    core::TrajectoryStore::stable_sort_from(kept, 0);
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

// --- cached BFS roots: an n-bit bitset in u64 words ------------------------

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
      w.u8(t.used ? 1 : 0);
    }
  }
  write_gmw_side(w, snap.engine.trajectories,
                 snap.engine.store.live_generations(
                     snap.engine.trajectories.next_generation));
  write_root_bitset(w, n, snap.tree_roots);
  return std::move(w.bytes);
}

ServiceSnapshot decode_payload(const std::uint8_t* data, std::size_t size) {
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
    held.resize(r.count(/*token bytes=*/17));
    for (core::HeldToken& t : held) {
      t.source = r.u32();
      t.seq = r.u32();
      t.length = r.u32();
      t.arrival_slot = r.u32();
      t.used = r.u8() != 0;
    }
  }
  core::TrajectoryStore& trajectories = snap.engine.trajectories;
  trajectories = core::TrajectoryStore(n);
  read_gmw_side(r, trajectories);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& records = trajectories.gmw[v];
    trajectories.gmw_unsorted[v] = !std::is_sorted(records.begin(),
                                                   records.end());
    trajectories.records_kept += records.size();
  }
  snap.tree_roots = read_root_bitset(r, n);
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

void write_file_atomically(const std::string& path, const char* what,
                           const char* write_site, const char* commit_site,
                           ByteRun header, const std::vector<ByteRun>& payload) {
  std::uint64_t budget = ~std::uint64_t{0};
  if (failpoint(write_site)) {
    std::uint64_t total = 0;
    for (const ByteRun& run : payload) total += run.size;
    budget = total / 2;
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error(std::string(what) + ": cannot open " + tmp +
                             ": " + std::strerror(errno));
  }
  const auto put = [&](ByteRun run, std::uint64_t& cap) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(run.size, cap));
    cap -= want;
    const auto* p = static_cast<const std::uint8_t*>(run.data);
    std::size_t written = 0;
    while (written < want) {
      const ssize_t n = ::write(fd, p + written, want - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        throw std::runtime_error(std::string(what) + ": write to " + tmp +
                                 " failed: " + std::strerror(err));
      }
      written += static_cast<std::size_t>(n);
    }
  };
  std::uint64_t header_cap = ~std::uint64_t{0};
  put(header, header_cap);
  for (const ByteRun& run : payload) put(run, budget);
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string(what) + ": fsync/close of " + tmp +
                             " failed");
  }
  failpoint(commit_site);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string(what) + ": rename to " + path +
                             " failed: " + std::strerror(err));
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

void write_snapshot_file(const std::string& path,
                         const ServiceSnapshot& snap) {
  const std::vector<std::uint8_t> payload = encode_payload(snap);
  std::uint8_t header[kHeaderSize] = {};
  std::memcpy(header, kMagic, sizeof kMagic);
  const std::uint32_t version = kSnapshotVersion;
  std::memcpy(header + 8, &version, 4);
  const std::uint64_t payload_size = payload.size();
  std::memcpy(header + 16, &payload_size, 8);
  const std::uint32_t checksum = crc32(payload.data(), payload.size());
  std::memcpy(header + 24, &checksum, 4);
  write_file_atomically(path, "snapshot", "snapshot.write", "snapshot.commit",
                        {header, sizeof header},
                        {{payload.data(), payload.size()}});
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
  if (version != kSnapshotVersion) {
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
    return {decode_payload(file.data() + kHeaderSize, payload_size), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, std::string("payload decode failed: ") + e.what()};
  }
}

std::string bind_to_graph(const Graph& g, bool recorded,
                          const ServiceSnapshot& snap) {
  constexpr std::uint32_t kNoSlot = core::TrajectoryStore::kSpentSlot;
  const std::size_t n = g.node_count();
  const core::WalkStore& store = snap.engine.store;
  const core::TrajectoryStore& trajectories = snap.engine.trajectories;
  if (store.held.size() != n || trajectories.gmw.size() != n) {
    return "node count mismatch";
  }
  // A generation at or above the counter would be handed out again to a
  // later run, whose records its replay would then mix with the file's.
  const std::uint32_t generations = trajectories.next_generation;
  for (NodeId v = 0; v < n; ++v) {
    // kNoSlot marks a hop-0 record's arrival and a replayed record, and a
    // lazy walk's token that never moved arrived through no slot.
    const auto bad = [degree = g.degree(v)](std::uint32_t slot) {
      return slot >= degree && slot != kNoSlot;
    };
    for (const core::HeldToken& t : store.held[v]) {
      if (t.source >= n || bad(t.arrival_slot)) return "token out of range";
      if (recorded && t.seq >= generations) {
        return "token generation out of range";
      }
    }
    for (const core::GmwRecord& r : trajectories.gmw[v]) {
      if (bad(r.next_slot) || bad(r.prev_slot)) {
        return "routing record slot out of range";
      }
      if (r.gen >= generations) {
        return "routing record generation out of range";
      }
    }
  }
  return "";
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
