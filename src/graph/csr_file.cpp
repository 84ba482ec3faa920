#include "graph/csr_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resil/snapshot.hpp"  // crc32, write_file_atomically

namespace drw::csr {
namespace {

constexpr char kMagic[8] = {'D', 'R', 'W', 'C', 'S', 'R', '1', '\0'};
constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kMetaSize = 32;  // n, adjacency_count, flags, reserved
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kFlagRelabeled = 1ull;

bool ends_with_csr(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".csr") == 0;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool file_has_csr_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char buf[sizeof kMagic] = {};
  in.read(buf, sizeof buf);
  return in.gcount() == sizeof buf &&
         std::memcmp(buf, kMagic, sizeof kMagic) == 0;
}

/// Full-file verification (CRC + adjacency bound scan) is on unless
/// DRW_CSR_VERIFY=0; the structural offset checks always run.
bool verify_enabled() {
  const char* env = std::getenv("DRW_CSR_VERIFY");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

LoadedGraph load_text(const std::string& path, unsigned threads,
                      std::string note, EdgeListOptions options = {}) {
  ParseStats stats;
  Graph raw = read_edge_list_file(path, threads, &stats, options);
  obs::Span span(obs::Name::kIngestRelabel, obs::kPidIngest, 0);
  Relabeling rel = degree_relabel(raw);
  LoadedGraph out;
  out.graph = std::move(rel.graph);
  out.new_to_old = std::move(rel.new_to_old);
  out.old_to_new = std::move(rel.old_to_new);
  out.from_csr = false;
  out.note = std::move(note);
  out.stats = stats;
  return out;
}

}  // namespace

Relabeling degree_relabel(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  // Degree descending, old id ascending: a total order, so the permutation
  // (and everything downstream of it) is deterministic.
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    const std::uint32_t da = g.degree(a);
    const std::uint32_t db = g.degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<NodeId> old_to_new(n);
  for (std::size_t i = 0; i < n; ++i) {
    old_to_new[order[i]] = static_cast<NodeId>(i);
  }
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + g.degree(order[i]);
  }
  std::vector<NodeId> adjacency(offsets[n]);
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = g.neighbors(order[i]);
    NodeId* dst = adjacency.data() + offsets[i];
    for (std::size_t j = 0; j < nbrs.size(); ++j) dst[j] = old_to_new[nbrs[j]];
    std::sort(dst, dst + nbrs.size());
  }
  Relabeling rel;
  rel.graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  rel.new_to_old = std::move(order);
  rel.old_to_new = std::move(old_to_new);
  return rel;
}

void write_csr_file(const std::string& path, const Graph& g,
                    const std::vector<NodeId>& new_to_old) {
  obs::Span span(obs::Name::kIngestWrite, obs::kPidIngest, 0);
  if (g.node_count() == 0) {
    throw std::invalid_argument("csr: refusing to write an empty graph");
  }
  if (!new_to_old.empty() && new_to_old.size() != g.node_count()) {
    throw std::invalid_argument("csr: relabel map size mismatch");
  }
  const std::uint64_t n = g.node_count();
  const std::uint64_t ac = g.adjacency().size();
  const std::uint64_t flags = new_to_old.empty() ? 0 : kFlagRelabeled;
  const std::uint64_t meta[4] = {n, ac, flags, 0};
  const std::uint64_t payload_size =
      kMetaSize + (n + 1) * 8 + ac * 4 + (flags ? n * 4 : 0);

  // CRC chains across the payload pieces (crc32's seed parameter), so the
  // arrays are never copied into a contiguous staging buffer.
  std::uint32_t crc = resil::crc32(meta, sizeof meta);
  crc = resil::crc32(g.offsets().data(), (n + 1) * 8, crc);
  crc = resil::crc32(g.adjacency().data(), ac * 4, crc);
  if (flags != 0) crc = resil::crc32(new_to_old.data(), n * 4, crc);

  std::uint8_t header[kHeaderSize] = {};
  std::memcpy(header, kMagic, sizeof kMagic);
  const std::uint32_t version = kCsrVersion;
  std::memcpy(header + 8, &version, 4);
  std::memcpy(header + 12, &kEndianTag, 4);
  std::memcpy(header + 16, &payload_size, 8);
  std::memcpy(header + 24, &crc, 4);

  std::vector<resil::ByteRun> payload = {
      {meta, sizeof meta},
      {g.offsets().data(), (n + 1) * 8},
      {g.adjacency().data(), ac * 4}};
  if (flags != 0) payload.push_back({new_to_old.data(), n * 4});
  resil::write_file_atomically(path, "csr", "csr.write", "csr.commit",
                               {header, sizeof header}, payload);
}

ReadOutcome read_csr_file(const std::string& path) {
  obs::Span span(obs::Name::kIngestLoad, obs::kPidIngest, 0);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return {std::nullopt,
            "cannot open " + path + ": " + std::strerror(errno)};
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return {std::nullopt, "cannot stat " + path + ": " + std::strerror(err)};
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderSize) {
    ::close(fd);
    return {std::nullopt,
            "truncated header (" + std::to_string(size) + " bytes)"};
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int mmap_err = errno;
  ::close(fd);  // the mapping outlives the descriptor
  if (base == MAP_FAILED) {
    return {std::nullopt, "mmap of " + path + " failed: " +
                              std::strerror(mmap_err)};
  }
  std::shared_ptr<const void> mapping(
      base, [size](const void* b) { ::munmap(const_cast<void*>(b), size); });

  const auto* bytes = static_cast<const std::uint8_t*>(base);
  if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
    return {std::nullopt, "bad magic (not a drw CSR file)"};
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes + 8, 4);
  if (version != kCsrVersion) {
    return {std::nullopt, "unsupported CSR version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kCsrVersion) + ")"};
  }
  std::uint32_t endian = 0;
  std::memcpy(&endian, bytes + 12, 4);
  if (endian != kEndianTag) {
    return {std::nullopt,
            "wrong endianness (CSR file written on an incompatible host)"};
  }
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes + 16, 8);
  if (payload_size != size - kHeaderSize) {
    return {std::nullopt,
            "payload size mismatch (header says " +
                std::to_string(payload_size) + ", file carries " +
                std::to_string(size - kHeaderSize) + ")"};
  }
  const bool verify = verify_enabled();
  if (verify) {
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes + 24, 4);
    const std::uint32_t actual =
        resil::crc32(bytes + kHeaderSize, payload_size);
    if (stored_crc != actual) {
      return {std::nullopt, "checksum mismatch (torn or corrupt CSR file)"};
    }
  }

  // Structural validation: nothing below may be dereferenced out of bounds
  // even if the CRC was skipped or forged.
  const std::uint8_t* payload = bytes + kHeaderSize;
  if (payload_size < kMetaSize) {
    return {std::nullopt, "malformed CSR payload: missing meta block"};
  }
  std::uint64_t meta[4];
  std::memcpy(meta, payload, sizeof meta);
  const std::uint64_t n = meta[0];
  const std::uint64_t ac = meta[1];
  const std::uint64_t flags = meta[2];
  if (n == 0) {
    return {std::nullopt, "malformed CSR payload: zero node count"};
  }
  if (n > static_cast<std::uint64_t>(kInvalidNode)) {
    return {std::nullopt,
            "malformed CSR payload: node count overflows the 32-bit id space"};
  }
  if ((flags & ~kFlagRelabeled) != 0) {
    return {std::nullopt, "malformed CSR payload: unknown flags"};
  }
  if (ac % 2 != 0 || ac > payload_size / 4) {
    return {std::nullopt, "malformed CSR payload: bad adjacency count"};
  }
  const std::uint64_t expected =
      kMetaSize + (n + 1) * 8 + ac * 4 +
      ((flags & kFlagRelabeled) != 0 ? n * 4 : 0);
  if (payload_size != expected) {
    return {std::nullopt,
            "malformed CSR payload: size inconsistent with node/edge counts"};
  }
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(payload + kMetaSize);
  const auto* adjacency =
      reinterpret_cast<const NodeId*>(payload + kMetaSize + (n + 1) * 8);
  const NodeId* relabel_map =
      (flags & kFlagRelabeled) != 0
          ? reinterpret_cast<const NodeId*>(payload + kMetaSize +
                                            (n + 1) * 8 + ac * 4)
          : nullptr;
  if (offsets[0] != 0 || offsets[n] != ac) {
    return {std::nullopt,
            "malformed CSR payload: offsets do not frame adjacency"};
  }
  for (std::uint64_t v = 1; v <= n; ++v) {
    if (offsets[v] < offsets[v - 1]) {
      return {std::nullopt, "malformed CSR payload: offsets not monotone"};
    }
    if (offsets[v] - offsets[v - 1] > 0xFFFFFFFFull) {
      return {std::nullopt,
              "malformed CSR payload: node degree overflows 32 bits"};
    }
  }
  if (verify) {
    for (std::uint64_t e = 0; e < ac; ++e) {
      if (adjacency[e] >= n) {
        return {std::nullopt,
                "malformed CSR payload: adjacency target out of range"};
      }
    }
  }

  LoadedGraph out;
  if (relabel_map != nullptr) {
    out.new_to_old.assign(relabel_map, relabel_map + n);
    out.old_to_new.assign(n, kInvalidNode);
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId old = out.new_to_old[i];
      if (old >= n || out.old_to_new[old] != kInvalidNode) {
        return {std::nullopt,
                "malformed CSR payload: relabel map is not a permutation"};
      }
      out.old_to_new[old] = static_cast<NodeId>(i);
    }
  }
  out.graph = Graph::view({offsets, static_cast<std::size_t>(n + 1)},
                          {adjacency, static_cast<std::size_t>(ac)},
                          std::move(mapping));
  out.from_csr = true;

  auto& reg = obs::Registry::global();
  if (reg.enabled()) {
    reg.counter("ingest.csr_bytes").add(size);
    reg.counter("ingest.csr_loads").add(1);
  }
  return {std::move(out), ""};
}

LoadedGraph load_graph(const std::string& path, unsigned threads,
                       EdgeListOptions options) {
  const bool looks_csr = ends_with_csr(path) || file_has_csr_magic(path);
  if (!looks_csr) return load_text(path, threads, "", options);
  ReadOutcome out = read_csr_file(path);
  if (out.loaded.has_value()) return std::move(*out.loaded);
  if (ends_with_csr(path)) {
    // Degrade to the text sibling the cache was converted from: PATH minus
    // ".csr". The text path relabels identically, so the fallback serves
    // bit-identical results to what the valid CSR would have.
    const std::string sibling = path.substr(0, path.size() - 4);
    if (file_exists(sibling)) {
      return load_text(sibling, threads,
                       "csr rejected (" + out.error + "); re-parsed " +
                           sibling,
                       options);
    }
  }
  throw std::runtime_error("cannot load graph " + path + ": " + out.error +
                           " (no text fallback)");
}

LoadedGraph convert_edge_list(const std::string& text_path,
                              const std::string& csr_path, unsigned threads,
                              EdgeListOptions options) {
  LoadedGraph loaded = load_graph(text_path, threads, options);
  write_csr_file(csr_path, loaded.graph, loaded.new_to_old);
  return loaded;
}

}  // namespace drw::csr
