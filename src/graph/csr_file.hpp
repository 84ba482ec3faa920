// On-disk binary CSR graphs (drw::csr): convert once, serve at mmap speed.
//
// Real edge-list datasets (SNAP et al.) are tens to hundreds of MB of text;
// re-parsing them on every server start makes warm restart (drw::resil)
// pointless. The ingestion pipeline here is:
//
//   text edge list --parse--> Graph --degree_relabel--> Graph + id map
//                                   --write_csr_file--> FILE.csr
//   FILE.csr --load_graph--> zero-copy Graph::view over an mmap
//
// Degree-ordered relabeling gives hot (high-degree) nodes dense low ids so
// their adjacency slices and per-node state pack into the same cache lines;
// the old<->new id map is stored in the file and returned to callers so
// request sources and reported walks stay in the user's id space.
//
// IMPORTANT: the text path of load_graph applies the SAME relabeling, so a
// converted CSR and its source text file produce bit-identical serving
// results (endpoints, paths, messages) at every thread count and mux
// width -- including when a corrupt CSR degrades to text re-parse.
//
// On-disk format (version 1, native-endian, single-host cache):
//
//   [0]  magic   "DRWCSR1\0"                (8 bytes)
//   [8]  version u32 | endian tag u32 (0x01020304; detects byte-swapped
//        files from a foreign host before any field is trusted)
//   [16] payload size u64
//   [24] CRC-32 (IEEE) of payload u32 | reserved u32
//   [32] payload:
//          u64 node_count, u64 adjacency_count, u64 flags (bit0:
//          relabeled), u64 reserved,
//          u64 offsets[node_count+1], u32 adjacency[adjacency_count],
//          u32 new_to_old[node_count]        (present iff flags bit0)
//
// All arrays are naturally aligned at their mmap offsets (the header and
// meta block are 32 bytes each; adjacency_count is even). Writes reuse the
// resil snapshot idiom: tmp + fsync + rename + fsync(dir), with failpoints
// "csr.write" (short write -> torn payload the CRC must catch) and
// "csr.commit" (kill window before the rename). A file failing ANY check
// (magic/version/endian/size/CRC/structure) is rejected with a reason and
// never dereferenced -- load_graph then degrades to re-parsing the text
// sibling (PATH minus its ".csr" suffix) when one exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace drw::csr {

inline constexpr std::uint32_t kCsrVersion = 1;

/// Deterministic degree-ordered relabeling: new id 0 is the highest-degree
/// node (ties broken by ascending old id). new_to_old[new] == old and
/// old_to_new[old] == new are inverse permutations of [0, n).
struct Relabeling {
  Graph graph;  ///< the same topology in the new id space
  std::vector<NodeId> new_to_old;
  std::vector<NodeId> old_to_new;
};
Relabeling degree_relabel(const Graph& g);

/// Atomically writes g (and its relabel map; pass an empty vector for an
/// unlabeled graph) to `path`. Throws std::runtime_error on IO failure.
void write_csr_file(const std::string& path, const Graph& g,
                    const std::vector<NodeId>& new_to_old);

/// A graph ready to serve, plus where it came from.
struct LoadedGraph {
  Graph graph;
  /// Id translation; empty when the mapping is the identity (a CSR file
  /// written without a relabel map). to_internal/to_user below handle both.
  std::vector<NodeId> new_to_old;
  std::vector<NodeId> old_to_new;
  bool from_csr = false;  ///< true: mmap'd binary; false: text parse
  std::string note;       ///< fallback reason when a CSR was rejected
  ParseStats stats;       ///< text-parse instrumentation (text path only)

  /// user id -> internal id (kInvalidNode if out of range).
  NodeId to_internal(NodeId user) const {
    if (old_to_new.empty()) return user < graph.node_count() ? user : kInvalidNode;
    return user < old_to_new.size() ? old_to_new[user] : kInvalidNode;
  }
  /// internal id -> user id.
  NodeId to_user(NodeId internal) const {
    if (new_to_old.empty()) return internal;
    return internal < new_to_old.size() ? new_to_old[internal] : internal;
  }
};

struct ReadOutcome {
  std::optional<LoadedGraph> loaded;  ///< empty on any validation failure
  std::string error;  ///< human-readable rejection reason when empty
};

/// mmaps and validates a CSR file. Never throws on bad content: every
/// rejection (missing file, bad magic, wrong version/endianness, size or
/// checksum mismatch, malformed structure) comes back as an error string.
/// Set DRW_CSR_VERIFY=0 to skip the CRC + adjacency bound scan on trusted
/// files (the structural offset checks that prevent UB always run).
ReadOutcome read_csr_file(const std::string& path);

/// The ingestion entry point used by the CLI and service plumbing:
///   * PATH with CSR magic (or a ".csr" suffix) -> read_csr_file; on
///     rejection, fall back to re-parsing the text sibling (PATH minus
///     ".csr") with identical relabeling, recording the reason in `note`;
///   * anything else -> bulk text parse (graph/io.hpp) + degree_relabel.
/// Throws std::runtime_error when nothing loadable exists,
/// std::invalid_argument on malformed text content.
/// `options` applies to the text-parse paths only (a binary CSR has no
/// headers to ignore).
LoadedGraph load_graph(const std::string& path, unsigned threads = 0,
                       EdgeListOptions options = {});

/// `drw convert`: text parse + relabel + write_csr_file. Returns the
/// converted graph (handy for summaries/tests).
LoadedGraph convert_edge_list(const std::string& text_path,
                              const std::string& csr_path,
                              unsigned threads = 0,
                              EdgeListOptions options = {});

}  // namespace drw::csr
