#include "graph/io.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resil/failpoint.hpp"
#include "util/threads.hpp"

namespace drw {
namespace {

// Node ids must fit a NodeId with kInvalidNode reserved as a sentinel.
constexpr unsigned long long kMaxId =
    static_cast<unsigned long long>(kInvalidNode) - 1;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Horizontal whitespace, the set istream extraction skips within a line
// (the buffer parsers never cross '\n'; lines are split beforehand).
bool is_hspace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* skip_hspace(const char* p, const char* end) {
  while (p < end && is_hspace(*p)) ++p;
  return p;
}

struct Token {
  bool ok = false;  ///< extraction succeeded (>= 1 digit, fits long long)
  bool negative = false;
  unsigned long long value = 0;
  const char* next = nullptr;
};

// Mirrors istream integer extraction over [p, end): optional sign, then
// decimal digits, stopping at the first non-digit. Values outside long
// long range fail extraction (stream semantics), they do not saturate.
Token parse_int(const char* p, const char* end) {
  Token t;
  t.next = p;
  const char* q = p;
  bool neg = false;
  if (q < end && (*q == '+' || *q == '-')) {
    neg = (*q == '-');
    ++q;
  }
  if (q == end || *q < '0' || *q > '9') return t;  // no digits: fail
  bool overflow = false;
  unsigned long long v = 0;
  while (q < end && *q >= '0' && *q <= '9') {
    const unsigned d = static_cast<unsigned>(*q - '0');
    if (v > (~0ull - d) / 10) {
      overflow = true;
    } else {
      v = v * 10 + d;
    }
    ++q;
  }
  t.next = q;
  const unsigned long long limit =
      neg ? (1ull << 63) : (1ull << 63) - 1;  // long long range
  if (overflow || v > limit) return t;
  t.ok = true;
  t.negative = neg;
  t.value = v;
  return t;
}

enum class ErrCode : std::uint8_t {
  kNone,
  kExpectedTwo,
  kNegative,
  kOverflow,
  kSelfLoop,
  kHeaderOverflow,
};

[[noreturn]] void throw_line_error(std::size_t line, ErrCode code,
                                   unsigned long long bad_value) {
  const std::string at = "edge list line " + std::to_string(line) + ": ";
  switch (code) {
    case ErrCode::kExpectedTwo:
      throw std::invalid_argument(at + "expected two node IDs");
    case ErrCode::kNegative:
      throw std::invalid_argument(at + "negative node ID");
    case ErrCode::kOverflow:
      throw std::invalid_argument(at + "node ID " + std::to_string(bad_value) +
                                  " overflows the 32-bit node id space");
    case ErrCode::kSelfLoop:
      throw std::invalid_argument(at + "self-loop");
    case ErrCode::kHeaderOverflow:
      throw std::invalid_argument(at + "node count " +
                                  std::to_string(bad_value) +
                                  " overflows the 32-bit node id space");
    case ErrCode::kNone:
      break;
  }
  throw std::logic_error("edge list: unknown parse error");
}

[[noreturn]] void throw_header_conflict(std::size_t line,
                                        std::uint64_t earlier) {
  throw std::invalid_argument(
      "edge list line " + std::to_string(line) +
      ": duplicate '# nodes' header conflicts with earlier value " +
      std::to_string(earlier));
}

struct LineOut {
  enum Kind : std::uint8_t { kSkip, kEdge, kHeader, kError } kind = kSkip;
  ErrCode code = ErrCode::kNone;
  NodeId u = 0;
  NodeId v = 0;
  std::uint64_t value = 0;  ///< header count, or the offending id on error
};

/// Parses one line [p, end) (no '\n' inside). Reproduces the historical
/// getline + istringstream semantics exactly: '#'/'%' in column one makes
/// a comment ("# nodes N" headers included); an unparseable FIRST token
/// skips the line (stream-extraction-failure compatibility); a missing or
/// unparseable second token, a negative id, an id beyond kMaxId, and a
/// self-loop are line errors, detected in that order.
LineOut parse_line(const char* p, const char* end) {
  LineOut out;
  if (p < end && (*p == '#' || *p == '%')) {
    const char* q = skip_hspace(p + 1, end);
    if (end - q >= 5 && std::memcmp(q, "nodes", 5) == 0 &&
        (q + 5 == end || is_hspace(q[5]))) {
      // "# nodes N": a failed count parse reads as 0 (stream semantics).
      const Token n = parse_int(skip_hspace(q + 5, end), end);
      out.kind = LineOut::kHeader;
      out.value = (n.ok && !n.negative) ? n.value : 0;
      if (out.value > kMaxId + 1) {
        out.kind = LineOut::kError;
        out.code = ErrCode::kHeaderOverflow;
      }
    }
    return out;  // plain comment: kSkip
  }
  const char* q = skip_hspace(p, end);
  if (q == end) return out;  // blank line
  const Token a = parse_int(q, end);
  if (!a.ok) return out;  // unparseable first token: skipped, like a blank
  const Token b = parse_int(skip_hspace(a.next, end), end);
  if (!b.ok) {
    out.kind = LineOut::kError;
    out.code = ErrCode::kExpectedTwo;
    return out;
  }
  if ((a.negative && a.value != 0) || (b.negative && b.value != 0)) {
    out.kind = LineOut::kError;
    out.code = ErrCode::kNegative;
    return out;
  }
  if (a.value > kMaxId || b.value > kMaxId) {
    out.kind = LineOut::kError;
    out.code = ErrCode::kOverflow;
    out.value = std::max(a.value, b.value);
    return out;
  }
  if (a.value == b.value) {
    out.kind = LineOut::kError;
    out.code = ErrCode::kSelfLoop;
    return out;
  }
  out.kind = LineOut::kEdge;
  out.u = static_cast<NodeId>(a.value);
  out.v = static_cast<NodeId>(b.value);
  return out;
}

/// EdgeListOptions::no_header post-filter: headers (and the overflow
/// errors only a header can produce) become plain comments.
LineOut apply_options(LineOut out, const EdgeListOptions& options) {
  if (options.no_header &&
      (out.kind == LineOut::kHeader ||
       (out.kind == LineOut::kError &&
        out.code == ErrCode::kHeaderOverflow))) {
    return LineOut{};
  }
  return out;
}

/// Calls fn(line_begin, line_end) for every physical line of [begin, end);
/// a trailing line without '\n' still counts (getline compatibility).
template <typename Fn>
void for_each_line(const char* begin, const char* end, Fn&& fn) {
  const char* p = begin;
  while (p < end) {
    const char* nl =
        static_cast<const char*>(std::memchr(p, '\n', std::size_t(end - p)));
    const char* le = nl ? nl : end;
    if (!fn(p, le)) return;
    p = nl ? nl + 1 : end;
  }
}

unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? clamp_threads(requested) : default_threads();
}

/// Claims job indices [0, jobs) across up to `threads` workers.
template <typename Fn>
void run_workers(unsigned threads, std::size_t jobs, Fn&& fn) {
  if (jobs == 0) return;
  const unsigned width =
      static_cast<unsigned>(std::min<std::size_t>(threads, jobs));
  if (width <= 1) {
    for (std::size_t j = 0; j < jobs; ++j) fn(j);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    pool.emplace_back([&] {
      for (std::size_t j; (j = next.fetch_add(1)) < jobs;) fn(j);
    });
  }
  for (auto& th : pool) th.join();
}

/// CSR assembly shared by both parsers: counting scatter into per-node
/// slices, then per-node sort + dedup (parallel over edge-balanced node
/// ranges). Produces exactly the arrays GraphBuilder::build() would --
/// sorted unique adjacency with each undirected edge present twice --
/// without the global comparison sort, and independent of thread count.
Graph assemble_csr(std::size_t n,
                   const std::vector<std::vector<std::pair<NodeId, NodeId>>>&
                       parts,
                   unsigned threads) {
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::size_t raw = 0;
  for (const auto& part : parts) {
    raw += part.size();
    for (const auto& [a, b] : part) {
      ++offsets[a + 1];
      ++offsets[b + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> adjacency(raw * 2);
  {
    std::vector<std::uint64_t> cursor(offsets.begin(),
                                      offsets.empty() ? offsets.end()
                                                      : offsets.end() - 1);
    for (const auto& part : parts) {
      for (const auto& [a, b] : part) {
        adjacency[cursor[a]++] = b;
        adjacency[cursor[b]++] = a;
      }
    }
  }

  // Edge-balanced node ranges so one power-law hub cannot serialize the
  // sort pass; each worker touches disjoint slices.
  std::vector<std::uint32_t> deg(n, 0);
  const std::size_t want_ranges = std::size_t{threads} * 4;
  std::vector<std::pair<NodeId, NodeId>> ranges;
  {
    NodeId start = 0;
    for (std::size_t r = 0; r < want_ranges && start < n; ++r) {
      const std::uint64_t target =
          (offsets[n] * (r + 1) + want_ranges - 1) / want_ranges;
      NodeId stop = static_cast<NodeId>(
          std::upper_bound(offsets.begin() + start + 1, offsets.end(),
                           target == 0 ? 0 : target - 1) -
          offsets.begin() - 1);
      stop = std::max<NodeId>(stop, start + 1);
      stop = static_cast<NodeId>(std::min<std::size_t>(stop, n));
      ranges.emplace_back(start, stop);
      start = stop;
    }
    if (start < n) ranges.emplace_back(start, static_cast<NodeId>(n));
  }
  run_workers(threads, ranges.size(), [&](std::size_t r) {
    const auto [lo, hi] = ranges[r];
    for (NodeId v = lo; v < hi; ++v) {
      NodeId* first = adjacency.data() + offsets[v];
      NodeId* last = adjacency.data() + offsets[v + 1];
      std::sort(first, last);
      deg[v] = static_cast<std::uint32_t>(std::unique(first, last) - first);
    }
  });

  std::vector<std::uint64_t> final_offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    final_offsets[v + 1] = final_offsets[v] + deg[v];
  }
  if (final_offsets[n] == offsets[n]) {
    // No duplicate or reversed-duplicate rows: the scatter arrays are final.
    return Graph::from_csr(std::move(offsets), std::move(adjacency));
  }
  std::vector<NodeId> compact(final_offsets[n]);
  for (std::size_t v = 0; v < n; ++v) {
    std::memcpy(compact.data() + final_offsets[v],
                adjacency.data() + offsets[v], deg[v] * sizeof(NodeId));
  }
  return Graph::from_csr(std::move(final_offsets), std::move(compact));
}

/// Serial tokenizing parse with full diagnostics; keeps per-edge line
/// numbers so the post-loop '# nodes' range check reports original lines.
Graph parse_serial(std::string_view text, EdgeListOptions options = {}) {
  std::vector<std::vector<std::pair<NodeId, NodeId>>> parts(1);
  auto& edges = parts[0];
  std::vector<std::size_t> edge_lines;
  std::uint64_t declared_nodes = 0;
  bool has_header = false;
  NodeId max_id = 0;
  std::size_t line_number = 0;

  for_each_line(text.data(), text.data() + text.size(),
                [&](const char* p, const char* le) {
                  ++line_number;
                  const LineOut out = apply_options(parse_line(p, le), options);
                  switch (out.kind) {
                    case LineOut::kSkip:
                      break;
                    case LineOut::kHeader:
                      if (has_header && out.value != declared_nodes) {
                        throw_header_conflict(line_number, declared_nodes);
                      }
                      declared_nodes = out.value;
                      has_header = true;
                      break;
                    case LineOut::kEdge:
                      edges.emplace_back(out.u, out.v);
                      edge_lines.push_back(line_number);
                      max_id = std::max(max_id, std::max(out.u, out.v));
                      break;
                    case LineOut::kError:
                      throw_line_error(line_number, out.code, out.value);
                  }
                  return true;
                });

  if (edges.empty() && declared_nodes == 0) {
    throw std::invalid_argument("edge list: no edges and no node header");
  }
  if (has_header) {
    // A declared node count is a contract, not a floor: an id at or above
    // it is a malformed file (checked post-loop so a header after the edge
    // block still validates every line, with its original line number).
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const NodeId worst = std::max(edges[i].first, edges[i].second);
      if (worst >= declared_nodes) {
        throw std::invalid_argument(
            "edge list line " + std::to_string(edge_lines[i]) + ": node ID " +
            std::to_string(worst) + " exceeds the declared '# nodes " +
            std::to_string(declared_nodes) + "' header");
      }
    }
  }
  const std::size_t n = std::max<std::size_t>(
      declared_nodes, edges.empty() ? 0 : std::size_t{max_id} + 1);
  return assemble_csr(n, parts, 1);
}

struct ChunkResult {
  std::vector<std::pair<NodeId, NodeId>> edges;
  /// "# nodes" sightings as (value, local line), in file order.
  std::vector<std::pair<std::uint64_t, std::size_t>> headers;
  NodeId max_id = 0;
  std::size_t lines = 0;  ///< lines consumed (the error line included)
  ErrCode error = ErrCode::kNone;
  std::size_t error_line = 0;  ///< local (1-based) line of the first error
  std::uint64_t error_value = 0;
};

void parse_chunk(const char* begin, const char* end,
                 const EdgeListOptions& options, ChunkResult& out) {
  for_each_line(begin, end, [&](const char* p, const char* le) {
    ++out.lines;
    const LineOut lo = apply_options(parse_line(p, le), options);
    switch (lo.kind) {
      case LineOut::kSkip:
        break;
      case LineOut::kHeader:
        out.headers.emplace_back(lo.value, out.lines);
        break;
      case LineOut::kEdge:
        out.edges.emplace_back(lo.u, lo.v);
        out.max_id = std::max(out.max_id, std::max(lo.u, lo.v));
        break;
      case LineOut::kError:
        out.error = lo.code;
        out.error_line = out.lines;
        out.error_value = lo.value;
        return false;  // first error wins; later lines are unreachable
    }
    return true;
  });
}

}  // namespace

Graph parse_edge_list(std::string_view text, EdgeListOptions options) {
  return parse_serial(text, options);
}

Graph read_edge_list(std::istream& in) {
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  return parse_serial(buffer);
}

Graph parse_edge_list_parallel(std::string_view text, unsigned threads,
                               ParseStats* stats, EdgeListOptions options) {
  const auto t_parse = std::chrono::steady_clock::now();
  threads = resolve_threads(threads);
  const char* begin = text.data();
  const char* end = begin + text.size();

  // Split on newline boundaries: chunk i owns every line whose first byte
  // falls in its range, so chunk results concatenate to the serial parse.
  std::vector<std::pair<const char*, const char*>> spans;
  {
    const char* prev = begin;
    for (unsigned i = 1; i < threads && prev < end; ++i) {
      const char* cut = begin + (text.size() * i) / threads;
      if (cut <= prev) continue;
      const char* nl = static_cast<const char*>(
          std::memchr(cut, '\n', std::size_t(end - cut)));
      const char* next = nl ? nl + 1 : end;
      spans.emplace_back(prev, next);
      prev = next;
    }
    spans.emplace_back(prev, end);
  }

  std::vector<ChunkResult> chunks(spans.size());
  run_workers(threads, spans.size(), [&](std::size_t i) {
    parse_chunk(spans[i].first, spans[i].second, options, chunks[i]);
  });

  // Stitch diagnostics back together in file order: the first error by
  // global line number wins, with header conflicts interleaved at their
  // own lines exactly as the serial parse would encounter them.
  std::uint64_t declared_nodes = 0;
  bool has_header = false;
  NodeId max_id = 0;
  std::size_t base_line = 0;
  std::size_t edge_total = 0;
  for (const ChunkResult& c : chunks) {
    for (const auto& [value, local] : c.headers) {
      if (c.error != ErrCode::kNone && local > c.error_line) break;
      if (has_header && value != declared_nodes) {
        throw_header_conflict(base_line + local, declared_nodes);
      }
      declared_nodes = value;
      has_header = true;
    }
    if (c.error != ErrCode::kNone) {
      throw_line_error(base_line + c.error_line, c.error, c.error_value);
    }
    max_id = std::max(max_id, c.max_id);
    edge_total += c.edges.size();
    base_line += c.lines;
  }

  if (edge_total == 0 && declared_nodes == 0) {
    throw std::invalid_argument("edge list: no edges and no node header");
  }
  if (has_header && edge_total != 0 && std::uint64_t{max_id} >= declared_nodes) {
    // An id violates the declared bound. The serial parse tracks per-edge
    // line numbers and produces the exact historical diagnostic; errors
    // are allowed to be slow.
    return parse_serial(text, options);
  }
  const double parse_ms = ms_since(t_parse);

  const auto t_build = std::chrono::steady_clock::now();
  const std::size_t n = std::max<std::size_t>(
      declared_nodes, edge_total == 0 ? 0 : std::size_t{max_id} + 1);
  std::vector<std::vector<std::pair<NodeId, NodeId>>> parts(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    parts[i] = std::move(chunks[i].edges);
  }
  Graph g = assemble_csr(n, parts, threads);

  if (stats != nullptr) {
    stats->bytes = text.size();
    stats->lines = base_line;
    stats->edges = edge_total;
    stats->threads = threads;
    stats->parse_ms = parse_ms;
    stats->build_ms = ms_since(t_build);
  }
  return g;
}

Graph read_edge_list_file(const std::string& path, unsigned threads,
                          ParseStats* stats, EdgeListOptions options) {
  const auto t_read = std::chrono::steady_clock::now();
  std::string buffer;
  {
    obs::Span span(obs::Name::kIngestRead, obs::kPidIngest, 0);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open graph file: " + path);
    resil::failpoint("graph.io.read");
    in.seekg(0, std::ios::end);
    const auto size = in.tellg();
    if (size > 0) {
      buffer.resize(static_cast<std::size_t>(size));
      in.seekg(0, std::ios::beg);
      in.read(buffer.data(), size);
      if (!in) throw std::runtime_error("cannot read graph file: " + path);
    }
  }
  const double read_ms = ms_since(t_read);

  ParseStats local;
  Graph g;
  {
    obs::Span span(obs::Name::kIngestParse, obs::kPidIngest, 0,
                   buffer.size());
    g = parse_edge_list_parallel(buffer, threads, &local, options);
  }
  local.read_ms = read_ms;

  auto& reg = obs::Registry::global();
  if (reg.enabled()) {
    reg.counter("ingest.bytes").add(local.bytes);
    reg.counter("ingest.edges").add(local.edges);
    reg.counter("ingest.lines").add(local.lines);
    const double total_ms = local.read_ms + local.parse_ms + local.build_ms;
    if (total_ms > 0.0) {
      reg.gauge("ingest.edges_per_s")
          .set(double(local.edges) * 1e3 / total_ms);
    }
  }
  if (stats != nullptr) *stats = local;
  return g;
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# nodes " << g.node_count() << "\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (u > v) out << v << " " << u << "\n";
    }
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write graph file: " + path);
  write_edge_list(out, g);
}

}  // namespace drw
