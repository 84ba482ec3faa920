// drw — command-line driver for the distributed random-walk library.
//
// Usage:
//   drw <command> [--graph=SPEC] [--seed=N] [--threads=N] [options]
//
// Commands:
//   walk       one l-step stitched walk          (--l, --source, --naive)
//   many       k walks of length l               (--l, --k, --source)
//   serve      walk service over request batches (--requests, --batch-size,
//              alias: batch)                      --paths, --k, --l)
//   rst        random spanning tree              (--root)
//   mixing     decentralized mixing-time         (--samples, --lazy)
//   expander   expander check                    (--samples)
//   pagerank   PageRank via terminating walks    (--alpha, --tokens)
//   verify     PATH-VERIFICATION on the gadget   (--l)
//   convert    edge list -> binary CSR cache     (IN.txt OUT.csr,
//                                                 --no-relabel)
//
// Graph specs (default torus:12x12):
//   path:N cycle:N grid:RxC torus:RxC hypercube:D complete:N star:N
//   lollipop:C,P barbell:C,P er:N,P regular:N,D rgg:N,R chain:S,N,D
//   file:PATH (edge list or .csr; a bare existing path works too)
//
// File graphs go through the ingestion pipeline (graph/csr_file.hpp):
// bulk-parsed, degree-relabeled (node 0 = highest degree), and -- for
// .csr files -- mmap'd zero-copy. --source/--root and every printed node
// id stay in the user's id space; translation is internal. A rejected
// .csr (torn, corrupt, wrong version) degrades to re-parsing PATH minus
// ".csr" with identical results; stdout carries a machine-greppable
// "graph: csr|text" line.
//
// Examples:
//   drw walk --graph=regular:128,4 --l=8192
//   drw rst --graph=grid:8x8 --seed=7
//   drw pagerank --graph=rgg:96,0.2 --alpha=0.15 --tokens=200
//   drw convert soc.txt soc.txt.csr && drw serve --graph=soc.txt.csr
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/mixing.hpp"
#include "apps/pagerank.hpp"
#include "apps/rst.hpp"
#include "congest/network.hpp"
#include "core/random_walks.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/spanning.hpp"
#include "lowerbound/gadget.hpp"
#include "lowerbound/path_verification.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "service/walk_service.hpp"

namespace {

using namespace drw;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: drw "
               "<walk|many|serve|rst|mixing|expander|pagerank|verify>\n"
               "       drw convert IN.txt OUT.csr [--threads=N]"
               " [--no-relabel]\n"
               "           (bulk-parse IN.txt, degree-relabel, write an\n"
               "            atomic CRC-checksummed binary CSR cache that\n"
               "            --graph=OUT.csr mmaps zero-copy; --no-relabel\n"
               "            keeps user ids as internal ids)\n"
               "           [--graph=SPEC] [--seed=N] [--l=N] [--k=N]\n"
               "           [--source=N] [--root=N] [--alpha=F] [--tokens=N]\n"
               "           [--samples=N] [--naive] [--lazy] [--mh]\n"
               "           [--threads=N]  (executor threads; 0 = auto,\n"
               "                           results identical at any count)\n"
               "           [--mux=N]  (serve: concurrent stitching width,\n"
               "                       clamped to [1, 256]; default 1 =\n"
               "                       sequential)\n"
               "           [--requests=FILE] [--batch-size=N] [--paths]\n"
               "           [--trace=FILE]  (any command: Chrome trace-event\n"
               "                            JSON, Perfetto-loadable;\n"
               "                            DRW_TRACE=FILE is equivalent)\n"
               "           [--stats-json=FILE]  (serve: full per-batch +\n"
               "                            lifetime + metrics JSON)\n"
               "           [--snapshot=FILE]  (serve: checkpoint the serving\n"
               "                            state here after every batch --\n"
               "                            atomic, checksummed)\n"
               "           [--snapshot-keep=N]  (serve: rotate N snapshot\n"
               "                            generations FILE.1..FILE.N instead\n"
               "                            of overwriting; restore picks the\n"
               "                            newest valid one. Default 1)\n"
               "           [--restore]  (serve: warm-start from --snapshot\n"
               "                         before serving; a missing/corrupt\n"
               "                         snapshot degrades to cold start)\n"
               "           [--print-results]  (serve: one `result[IDX] ...`\n"
               "                         line per request in admitted order\n"
               "                         -- byte-identical to what `drw\n"
               "                         request` prints for the same log)\n"
               "           [--no-header]  (file graphs: ignore `# nodes N`\n"
               "                         headers; node count = max id + 1)\n"
               "serve --listen (always-on TCP server; SIGTERM = clean stop):\n"
               "           --listen=[HOST:]PORT  (port 0 = ephemeral; the\n"
               "                         bound address is printed as\n"
               "                         `listening: HOST:PORT`)\n"
               "           [--queue-cap=N] [--drr-quantum=N]\n"
               "           [--batch-cost=N] [--admission-policy=drr|fifo]\n"
               "           [--class-quantum=NAME:N]  (repeatable)\n"
               "           [--admission-log=FILE]  (admitted order +\n"
               "                         `# batch` markers; replay with\n"
               "                         serve --requests=FILE\n"
               "                         --print-results)\n"
               "           [--io-timeout-ms=N]\n"
               "       drw request --connect=HOST:PORT --requests=FILE\n"
               "           [--class=NAME] [--deadline-ms=N]\n"
               "           (client: sends the file's requests, prints one\n"
               "            result line per response, admitted order keyed\n"
               "            by the server's admission index)\n"
               "request file: one `source length count [record]` per line,\n"
               "              '#' starts a comment; a `# batch` line forces\n"
               "              a batch boundary (serve offline mode)\n"
               "graph specs: path:N cycle:N grid:RxC torus:RxC hypercube:D\n"
               "             complete:N star:N lollipop:C,P barbell:C,P\n"
               "             er:N,P regular:N,D powerlaw:N,M rgg:N,R\n"
               "             chain:S,N,D file:PATH (edge list or .csr;\n"
               "             a bare existing path also works)\n");
  std::exit(2);
}

struct Args {
  std::string command;
  std::string graph_spec = "torus:12x12";
  std::uint64_t seed = 42;
  std::uint64_t l = 4096;
  std::uint64_t k = 8;
  NodeId source = 0;
  NodeId root = 0;
  double alpha = 0.15;
  std::uint32_t tokens = 128;
  std::uint32_t samples = 0;
  bool naive = false;
  TransitionModel model = TransitionModel::kSimple;
  std::string requests_file;
  std::uint32_t batch_size = 8;
  bool paths = false;
  unsigned threads = 0;  // 0 = auto (DRW_THREADS env / hardware)
  unsigned mux = 1;  // serve: stitching width, clamped to [1, kMaxLanes]
  std::string trace_file;  // non-empty: obs tracer armed for the command
  std::string stats_json;  // serve: write the full stats JSON here
  std::string snapshot;    // serve: checkpoint path (snapshot-after-batch)
  std::uint32_t snapshot_keep = 1;  // serve: generations kept (1 = in place)
  bool restore = false;    // serve: warm-start from --snapshot
  bool no_relabel = false;  // convert: keep user ids as internal ids
  bool no_header = false;   // file graphs: ignore `# nodes N` headers
  std::vector<std::string> positional;  // convert: IN.txt OUT.csr

  // serve --listen (always-on server) and the `request` client.
  std::string listen;         // "[HOST:]PORT"; non-empty = listening mode
  std::string connect;        // request: "HOST[:PORT]"
  std::string klass;          // request: admission class name
  std::uint32_t deadline_ms = 0;  // request: per-request deadline
  std::size_t queue_cap = 4096;
  std::uint64_t drr_quantum = 2048;
  std::uint64_t batch_cost = 8192;
  service::AdmissionPolicy admission_policy = service::AdmissionPolicy::kDrr;
  std::vector<std::pair<std::string, std::uint64_t>> class_quanta;
  std::string admission_log;
  int io_timeout_ms = 30000;
  bool print_results = false;
};

std::optional<std::string> flag_value(const char* arg, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (auto v = flag_value(a, "--graph")) {
      args.graph_spec = *v;
    } else if (auto v = flag_value(a, "--seed")) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--l")) {
      args.l = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--k")) {
      args.k = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--source")) {
      args.source = static_cast<NodeId>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--root")) {
      args.root = static_cast<NodeId>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--alpha")) {
      args.alpha = std::strtod(v->c_str(), nullptr);
    } else if (auto v = flag_value(a, "--tokens")) {
      args.tokens =
          static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--threads")) {
      args.threads =
          static_cast<unsigned>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--mux")) {
      args.mux =
          static_cast<unsigned>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--samples")) {
      args.samples =
          static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--requests")) {
      args.requests_file = *v;
    } else if (auto v = flag_value(a, "--batch-size")) {
      args.batch_size =
          static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--trace")) {
      args.trace_file = *v;
    } else if (auto v = flag_value(a, "--stats-json")) {
      args.stats_json = *v;
    } else if (auto v = flag_value(a, "--snapshot-keep")) {
      args.snapshot_keep =
          static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--snapshot")) {
      args.snapshot = *v;
    } else if (auto v = flag_value(a, "--listen")) {
      args.listen = *v;
    } else if (auto v = flag_value(a, "--connect")) {
      args.connect = *v;
    } else if (auto v = flag_value(a, "--class-quantum")) {
      const auto sep = v->rfind(':');
      if (sep == std::string::npos || sep == 0) {
        usage("--class-quantum needs NAME:N");
      }
      args.class_quanta.emplace_back(
          v->substr(0, sep),
          std::strtoull(v->c_str() + sep + 1, nullptr, 10));
    } else if (auto v = flag_value(a, "--class")) {
      args.klass = *v;
    } else if (auto v = flag_value(a, "--deadline-ms")) {
      args.deadline_ms =
          static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (auto v = flag_value(a, "--queue-cap")) {
      args.queue_cap = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--drr-quantum")) {
      args.drr_quantum = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--batch-cost")) {
      args.batch_cost = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = flag_value(a, "--admission-policy")) {
      if (*v == "drr") {
        args.admission_policy = service::AdmissionPolicy::kDrr;
      } else if (*v == "fifo") {
        args.admission_policy = service::AdmissionPolicy::kFifo;
      } else {
        usage("--admission-policy must be drr or fifo");
      }
    } else if (auto v = flag_value(a, "--admission-log")) {
      args.admission_log = *v;
    } else if (auto v = flag_value(a, "--io-timeout-ms")) {
      args.io_timeout_ms =
          static_cast<int>(std::strtol(v->c_str(), nullptr, 10));
    } else if (std::strcmp(a, "--print-results") == 0) {
      args.print_results = true;
    } else if (std::strcmp(a, "--restore") == 0) {
      args.restore = true;
    } else if (std::strcmp(a, "--no-relabel") == 0) {
      args.no_relabel = true;
    } else if (std::strcmp(a, "--no-header") == 0) {
      args.no_header = true;
    } else if (a[0] != '-') {
      args.positional.push_back(a);
    } else if (std::strcmp(a, "--paths") == 0) {
      args.paths = true;
    } else if (std::strcmp(a, "--naive") == 0) {
      args.naive = true;
    } else if (std::strcmp(a, "--lazy") == 0) {
      args.model = TransitionModel::kLazy;
    } else if (std::strcmp(a, "--mh") == 0) {
      args.model = TransitionModel::kMetropolisUniform;
    } else {
      usage(("unknown flag: " + std::string(a)).c_str());
    }
  }
  return args;
}

/// Parses "name:a,b" / "name:AxB" graph specs.
Graph build_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  std::vector<double> params;
  if (colon != std::string::npos) {
    std::string rest = spec.substr(colon + 1);
    for (char& c : rest) {
      if (c == 'x' || c == ',') c = ' ';
    }
    char* cursor = rest.data();
    while (*cursor != '\0') {
      char* end = nullptr;
      const double value = std::strtod(cursor, &end);
      if (end == cursor) break;
      params.push_back(value);
      cursor = end;
    }
  }
  auto p = [&](std::size_t i, double fallback) {
    return i < params.size() ? params[i] : fallback;
  };
  Rng rng(seed ^ 0xabcdef);
  if (name == "path") return gen::path(static_cast<std::size_t>(p(0, 64)));
  if (name == "cycle") return gen::cycle(static_cast<std::size_t>(p(0, 64)));
  if (name == "grid") {
    return gen::grid(static_cast<std::size_t>(p(0, 8)),
                     static_cast<std::size_t>(p(1, 8)));
  }
  if (name == "torus") {
    return gen::torus(static_cast<std::size_t>(p(0, 12)),
                      static_cast<std::size_t>(p(1, 12)));
  }
  if (name == "hypercube") {
    return gen::hypercube(static_cast<std::size_t>(p(0, 6)));
  }
  if (name == "complete") {
    return gen::complete(static_cast<std::size_t>(p(0, 16)));
  }
  if (name == "star") return gen::star(static_cast<std::size_t>(p(0, 16)));
  if (name == "lollipop") {
    return gen::lollipop(static_cast<std::size_t>(p(0, 8)),
                         static_cast<std::size_t>(p(1, 8)));
  }
  if (name == "barbell") {
    return gen::barbell(static_cast<std::size_t>(p(0, 8)),
                        static_cast<std::size_t>(p(1, 2)));
  }
  if (name == "er") {
    return gen::erdos_renyi_connected(static_cast<std::size_t>(p(0, 64)),
                                      p(1, 0.08), rng);
  }
  if (name == "regular") {
    return gen::random_regular(static_cast<std::size_t>(p(0, 64)),
                               static_cast<std::uint32_t>(p(1, 4)), rng);
  }
  if (name == "powerlaw") {
    return gen::power_law(static_cast<std::size_t>(p(0, 64)),
                          static_cast<std::uint32_t>(p(1, 3)), rng);
  }
  if (name == "rgg") {
    return gen::random_geometric(static_cast<std::size_t>(p(0, 96)),
                                 p(1, 0.2), rng);
  }
  if (name == "chain") {
    return gen::expander_chain(static_cast<std::size_t>(p(0, 4)),
                               static_cast<std::size_t>(p(1, 32)),
                               static_cast<std::uint32_t>(p(2, 4)), rng);
  }
  usage(("unknown graph spec: " + spec).c_str());
}

/// A graph ready for a command: the topology (in the internal id space),
/// the user<->internal id maps, and provenance for the "graph:" line.
/// Generator graphs are never relabeled (identity maps), so their results
/// are unchanged; file graphs go through csr::load_graph -- text parse +
/// degree relabel, or zero-copy mmap of a converted .csr.
struct CliGraph {
  csr::LoadedGraph lg;
  bool from_file = false;
  std::string source_desc;  // "csr:PATH" / "text:PATH" / "generator:SPEC"
};

bool path_exists(const std::string& path) {
  std::ifstream probe(path);
  return probe.good();
}

CliGraph load_cli_graph(const Args& args) {
  const std::string& spec = args.graph_spec;
  const auto colon = spec.find(':');
  std::string file_path;
  if (colon != std::string::npos && spec.substr(0, colon) == "file") {
    file_path = spec.substr(colon + 1);
  } else if (colon == std::string::npos &&
             (path_exists(spec) ||
              (spec.size() > 4 &&
               spec.compare(spec.size() - 4, 4, ".csr") == 0))) {
    // Bare path convenience: --graph=soc.txt.csr. A missing .csr still
    // routes through load_graph so it can degrade to the text sibling.
    file_path = spec;
  }
  CliGraph cg;
  if (!file_path.empty()) {
    EdgeListOptions options;
    options.no_header = args.no_header;
    cg.lg = csr::load_graph(file_path, args.threads, options);
    cg.from_file = true;
    cg.source_desc = (cg.lg.from_csr ? "csr:" : "text:") + file_path;
  } else {
    cg.lg.graph = build_graph(spec, args.seed);
    cg.source_desc = "generator:" + spec;
  }
  return cg;
}

/// Applies the --threads override (results are bit-identical at every
/// thread count).
void configure_threads(congest::Network& net, const Args& args) {
  if (args.threads != 0) net.set_threads(args.threads);
}

int cmd_walk(const Args& args, const CliGraph& cg, std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  if (args.naive) {
    const auto result =
        core::naive_random_walk(net, args.source, args.l, args.model);
    std::printf("naive walk: destination=%u rounds=%llu messages=%llu\n",
                cg.lg.to_user(result.destination),
                static_cast<unsigned long long>(result.stats.rounds),
                static_cast<unsigned long long>(result.stats.messages));
    return 0;
  }
  core::Params params = core::Params::paper();
  params.transition = args.model;
  const auto out =
      core::single_random_walk(net, args.source, args.l, params, diameter);
  std::printf("stitched walk: destination=%u rounds=%llu (naive: %llu) "
              "lambda=%u stitches=%llu gmw=%llu\n",
              cg.lg.to_user(out.result.destination),
              static_cast<unsigned long long>(out.result.stats.rounds),
              static_cast<unsigned long long>(args.l),
              out.result.counters.lambda,
              static_cast<unsigned long long>(out.result.counters.stitches),
              static_cast<unsigned long long>(
                  out.result.counters.get_more_walks_calls));
  return 0;
}

int cmd_many(const Args& args, const CliGraph& cg, std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  core::Params params = core::Params::paper();
  params.transition = args.model;
  const std::vector<NodeId> sources(args.k, args.source);
  const auto out =
      core::many_random_walks(net, sources, args.l, params, diameter);
  std::printf("%llu walks of length %llu: rounds=%llu mode=%s\n",
              static_cast<unsigned long long>(args.k),
              static_cast<unsigned long long>(args.l),
              static_cast<unsigned long long>(out.stats.rounds),
              out.used_naive_fallback ? "naive-fallback" : "stitched");
  std::printf("destinations:");
  for (NodeId dest : out.destinations) {
    std::printf(" %u", cg.lg.to_user(dest));
  }
  std::printf("\n");
  return 0;
}

/// One request-file line in the user's id space (shared by the offline
/// serve path, the admission-log replay, and the `drw request` client).
struct RequestEntry {
  std::uint64_t source = 0;
  std::uint64_t length = 0;
  std::uint32_t count = 1;
  bool record = false;
};

struct RequestFileData {
  std::vector<RequestEntry> entries;
  /// Entry counts at which a batch ends (from `# batch` marker lines,
  /// strictly increasing; a final partial batch needs no marker). Empty =
  /// no markers, the caller chops by --batch-size.
  std::vector<std::size_t> boundaries;
};

/// Parses a request file: one `source length count [record]` per line;
/// blank lines and '#' comments skipped. A comment line reading exactly
/// `# batch` marks a batch boundary (the admission log's format), which
/// plain-comment readers naturally ignore -- old files stay valid.
RequestFileData parse_request_entries(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open request file: " + path).c_str());
  RequestFileData data;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      std::istringstream comment(line.substr(hash + 1));
      std::string word;
      if (comment >> word && word == "batch" && !(comment >> word) &&
          !data.entries.empty() &&
          (data.boundaries.empty() ||
           data.boundaries.back() != data.entries.size())) {
        data.boundaries.push_back(data.entries.size());
      }
      line.resize(hash);
    }
    const auto bad_line = [&](const char* what) {
      usage(("request file line " + std::to_string(line_no) + ": " + what)
                .c_str());
    };
    std::istringstream tokens(line);
    std::vector<std::string> fields;
    for (std::string token; tokens >> token;) fields.push_back(token);
    if (fields.empty()) continue;  // blank / comment-only line
    if (fields.size() < 2 || fields.size() > 4) {
      bad_line("expected `source length [count [record]]`");
    }
    // Every field is a whole unsigned decimal: a sign, a trailing
    // character or an overflow is an error, never a silently truncated or
    // wrapped request.
    std::uint64_t values[4] = {0, 0, 1, 0};  // source length count record
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string& field = fields[i];
      if (field[0] == '-') bad_line("negative field");
      const char* end = field.data() + field.size();
      const auto [ptr, ec] = std::from_chars(field.data(), end, values[i]);
      if (ec == std::errc::result_out_of_range) bad_line("field out of range");
      if (ec != std::errc() || ptr != end) {
        bad_line(("non-numeric field `" + field + "`").c_str());
      }
    }
    const auto [source, length, count, record] = values;
    if (count > std::numeric_limits<std::uint32_t>::max()) {
      bad_line("count exceeds 4294967295");
    }
    data.entries.push_back(RequestEntry{
        source, length, static_cast<std::uint32_t>(count), record != 0});
  }
  return data;
}

struct RequestFile {
  std::vector<service::WalkRequest> requests;  ///< internal id space
  std::vector<std::size_t> boundaries;         ///< see RequestFileData
};

/// parse_request_entries + validation + user->internal source translation.
RequestFile read_request_file(const std::string& path, const CliGraph& cg) {
  const RequestFileData data = parse_request_entries(path);
  RequestFile out;
  out.boundaries = data.boundaries;
  for (std::size_t i = 0; i < data.entries.size(); ++i) {
    const RequestEntry& e = data.entries[i];
    const NodeId internal =
        e.source <= std::uint64_t{kInvalidNode}
            ? cg.lg.to_internal(static_cast<NodeId>(e.source))
            : kInvalidNode;
    if (internal == kInvalidNode) {
      usage(("request file " + path + " entry " + std::to_string(i + 1) +
             ": source out of range").c_str());
    }
    out.requests.push_back(
        service::WalkRequest{internal, e.length, e.count, e.record});
  }
  return out;
}

/// The admitted-order result line(s) shared -- byte for byte -- by the
/// offline replay (`serve --requests=LOG --print-results`) and the network
/// client (`drw request`). All node ids are user-space.
void print_result_lines(std::uint64_t admission_index, std::uint64_t source,
                        std::uint64_t length, std::uint32_t count,
                        std::uint8_t status,
                        const std::vector<std::uint32_t>& destinations,
                        const std::vector<std::vector<std::uint32_t>>& paths) {
  std::printf("result[%llu] source=%llu length=%llu count=%u status=%s "
              "destinations:",
              static_cast<unsigned long long>(admission_index),
              static_cast<unsigned long long>(source),
              static_cast<unsigned long long>(length), count,
              service::to_string(
                  static_cast<service::RequestStatus>(status)));
  for (std::uint32_t d : destinations) std::printf(" %u", d);
  std::printf("\n");
  for (const auto& path : paths) {
    std::printf("result[%llu] path:",
                static_cast<unsigned long long>(admission_index));
    for (std::uint32_t node : path) std::printf(" %u", node);
    std::printf("\n");
  }
}

/// A reproducible synthetic workload: random sources, log-uniform lengths.
std::vector<service::WalkRequest> synthetic_requests(
    const Args& args, const Graph& g, std::uint32_t diameter) {
  Rng rng(args.seed ^ 0x5e21fe);
  std::vector<service::WalkRequest> requests;
  const double lo = std::log2(std::max<double>(diameter, 2.0));
  const double hi =
      std::log2(static_cast<double>(std::max<std::uint64_t>(args.l, 4)));
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(args.k, 1); ++i) {
    const double x = lo + (hi - lo) * rng.next_double();
    requests.push_back(service::WalkRequest{
        static_cast<NodeId>(rng.next_below(g.node_count())),
        static_cast<std::uint64_t>(std::llround(std::exp2(x))),
        static_cast<std::uint32_t>(1 + rng.next_below(4)), false});
  }
  return requests;
}

/// Appends the RunStats fields shared by batch and lifetime records.
void append_run_stats(std::ostringstream& out, const congest::RunStats& s) {
  out << "\"rounds\":" << s.rounds << ",\"messages\":" << s.messages
      << ",\"max_backlog\":" << s.max_backlog
      << ",\"threads\":" << s.threads << ",\"wall_ms\":" << s.wall_ms
      << ",\"compute_ms\":" << s.compute_ms
      << ",\"transmit_ms\":" << s.transmit_ms
      << ",\"merge_ms\":" << s.merge_ms;
}

/// One BatchReport as a JSON object: every scalar the report carries (the
/// human-readable per-batch line is a subset of this).
void append_batch_report(std::ostringstream& out,
                         const service::BatchReport& r) {
  out << "{";
  append_run_stats(out, r.stats);
  out << ",\"requests\":" << r.requests << ",\"walks\":" << r.walks
      << ",\"lambda\":" << r.lambda
      << ",\"naive_mode\":" << (r.naive_mode ? "true" : "false")
      << ",\"full_prepare\":" << (r.full_prepare ? "true" : "false")
      << ",\"stitches\":" << r.stitches
      << ",\"inventory_hits\":" << r.inventory_hits
      << ",\"inventory_hit_rate\":" << r.inventory_hit_rate()
      << ",\"engine_gmw_calls\":" << r.engine_gmw_calls
      << ",\"tree_builds\":" << r.tree_builds
      << ",\"tree_reuses\":" << r.tree_reuses
      << ",\"replenishments\":" << r.replenishments
      << ",\"replenished_walks\":" << r.replenished_walks
      << ",\"naive_rounds_estimate\":" << r.naive_rounds_estimate
      << ",\"mux_width\":" << r.mux_width
      << ",\"mux_groups\":" << r.mux_groups
      << ",\"mux_lanes\":" << r.mux_lanes
      << ",\"mux_conflicts\":" << r.mux_conflicts
      << ",\"rejected\":" << r.rejected
      << ",\"held_tokens\":" << r.held_tokens
      << ",\"unused_tokens\":" << r.unused_tokens
      << ",\"gmw_records\":" << r.gmw_records
      << ",\"gmw_records_freed\":" << r.gmw_records_freed << "}";
}

/// The running server, for the async-signal-safe SIGTERM/SIGINT path.
std::atomic<service::WalkServer*> g_server{nullptr};

void handle_stop_signal(int) {
  if (auto* server = g_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}

int cmd_serve(const Args& args, const CliGraph& cg, std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  service::ServiceConfig config;
  config.params = core::Params::paper();
  config.params.transition = args.model;
  config.enable_paths = args.paths;
  config.mux_width = args.mux;
  config.snapshot_path = args.snapshot;
  config.snapshot_keep = args.snapshot_keep;
  config.graph_source = cg.source_desc;
  if (args.restore && args.snapshot.empty()) {
    usage("--restore needs --snapshot=FILE");
  }
  service::WalkService service(net, diameter, config);
  if (args.restore) {
    // restore_snapshot logs the detailed reason (warm vs cold) to stderr;
    // the summary line keeps stdout machine-greppable for the harness.
    const bool warm = service.restore_snapshot(args.snapshot);
    std::printf("snapshot: %s\n",
                warm ? "warm restart" : "cold start (details on stderr)");
  }

  // --stats-json wants the metrics registry's view of the run as well.
  if (!args.stats_json.empty()) obs::Registry::global().set_enabled(true);
  std::ostringstream batches_json;

  if (!args.listen.empty()) {
    // Always-on mode: serve walk requests over TCP until SIGTERM/SIGINT.
    service::ServerConfig sc;
    const auto colon = args.listen.rfind(':');
    if (colon == std::string::npos) {
      sc.port = static_cast<std::uint16_t>(
          std::strtoul(args.listen.c_str(), nullptr, 10));
    } else {
      sc.host = args.listen.substr(0, colon);
      sc.port = static_cast<std::uint16_t>(
          std::strtoul(args.listen.c_str() + colon + 1, nullptr, 10));
    }
    sc.admission.queue_cap = std::max<std::size_t>(1, args.queue_cap);
    sc.admission.quantum = args.drr_quantum;
    sc.admission.max_batch_cost = args.batch_cost;
    sc.admission.policy = args.admission_policy;
    sc.io_timeout_ms = args.io_timeout_ms;
    sc.admission_log = args.admission_log;
    sc.class_quanta = args.class_quanta;

    service::WalkServer server(service, cg.lg, sc);
    g_server.store(&server, std::memory_order_relaxed);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    server.start();
    // Machine-greppable: tools/server_smoke.py and the crash harness
    // parse this line for the (possibly ephemeral) bound port.
    std::printf("listening: %s:%u\n", sc.host.c_str(),
                unsigned(server.port()));
    std::fflush(stdout);
    server.join();
    g_server.store(nullptr, std::memory_order_relaxed);

    const service::ServerStats st = server.stats();
    std::printf(
        "shutdown: clean | connections=%llu requests=%llu admitted=%llu "
        "batches=%llu rejected(queue_full=%llu deadline=%llu invalid=%llu)\n",
        static_cast<unsigned long long>(st.connections),
        static_cast<unsigned long long>(st.requests),
        static_cast<unsigned long long>(st.admitted),
        static_cast<unsigned long long>(st.batches),
        static_cast<unsigned long long>(st.rejected_queue_full),
        static_cast<unsigned long long>(st.rejected_deadline),
        static_cast<unsigned long long>(st.rejected_invalid));
  } else {
  const RequestFile rf =
      args.requests_file.empty()
          ? RequestFile{synthetic_requests(args, g, diameter), {}}
          : read_request_file(args.requests_file, cg);
  const std::vector<service::WalkRequest>& requests = rf.requests;
  if (requests.empty()) usage("no requests to serve");
  for (const service::WalkRequest& r : requests) {
    if (r.record_positions && !args.paths) {
      usage("request file asks for recorded paths: pass --paths");
    }
  }
  const std::uint32_t batch_size = std::max(args.batch_size, 1u);

  // Batch ends: `# batch` markers from the file (the admission log's
  // boundaries -- replay must reproduce them exactly), else --batch-size.
  std::vector<std::size_t> ends = rf.boundaries;
  if (ends.empty()) {
    for (std::size_t at = batch_size; at < requests.size();
         at += batch_size) {
      ends.push_back(at);
    }
  }
  if (ends.empty() || ends.back() != requests.size()) {
    ends.push_back(requests.size());
  }

  std::uint64_t admitted_index = 0;
  std::size_t batch_no = 0;
  std::size_t at = 0;
  for (const std::size_t end : ends) {
    for (std::size_t i = at; i < end; ++i) service.submit(requests[i]);
    at = end;
    const service::BatchReport report = service.flush();
    if (!args.stats_json.empty()) {
      if (batch_no != 0) batches_json << ",\n";
      append_batch_report(batches_json, report);
    }
    if (args.print_results) {
      for (const service::RequestResult& r : report.results) {
        std::vector<std::uint32_t> destinations;
        destinations.reserve(r.destinations.size());
        for (NodeId d : r.destinations) {
          destinations.push_back(cg.lg.to_user(d));
        }
        std::vector<std::vector<std::uint32_t>> paths;
        paths.reserve(r.paths.size());
        for (const auto& path : r.paths) {
          std::vector<std::uint32_t> user_path;
          user_path.reserve(path.size());
          for (NodeId node : path) user_path.push_back(cg.lg.to_user(node));
          paths.push_back(std::move(user_path));
        }
        print_result_lines(admitted_index++, cg.lg.to_user(r.request.source),
                           r.request.length, r.request.count,
                           static_cast<std::uint8_t>(r.status), destinations,
                           paths);
      }
    }
    std::printf(
        "batch %zu: %llu req / %llu walks | lambda=%u %s | rounds=%llu "
        "(%.1f/req) msgs=%llu | hit=%.3f gmw=%llu topups=%llu(+%llu) | "
        "trees: %llu built, %llu reused | mux=%u (%llu waves, %llu "
        "conflicts)\n",
        ++batch_no, static_cast<unsigned long long>(report.requests),
        static_cast<unsigned long long>(report.walks), report.lambda,
        report.naive_mode ? "naive"
                          : (report.full_prepare ? "phase1" : "reuse"),
        static_cast<unsigned long long>(report.stats.rounds),
        report.rounds_per_request(),
        static_cast<unsigned long long>(report.stats.messages),
        report.inventory_hit_rate(),
        static_cast<unsigned long long>(report.engine_gmw_calls),
        static_cast<unsigned long long>(report.replenishments),
        static_cast<unsigned long long>(report.replenished_walks),
        static_cast<unsigned long long>(report.tree_builds),
        static_cast<unsigned long long>(report.tree_reuses),
        report.mux_width,
        static_cast<unsigned long long>(report.mux_groups),
        static_cast<unsigned long long>(report.mux_conflicts));
  }
  }
  const service::ServiceStats& life = service.lifetime();
  std::printf(
      "served %llu requests (%llu walks) in %llu batches: rounds=%llu "
      "messages=%llu | phase1=%llu topups=%llu(+%llu walks) hit=%.3f "
      "gmw=%llu | trees: %llu built / %llu reused | mux: %llu waves / %llu "
      "lanes / %llu conflicts | "
      "naive model rounds=%llu (%.1fx)\n",
      static_cast<unsigned long long>(life.requests),
      static_cast<unsigned long long>(life.walks),
      static_cast<unsigned long long>(life.batches),
      static_cast<unsigned long long>(life.stats.rounds),
      static_cast<unsigned long long>(life.stats.messages),
      static_cast<unsigned long long>(life.full_prepares),
      static_cast<unsigned long long>(life.replenishments),
      static_cast<unsigned long long>(life.replenished_walks),
      life.inventory_hit_rate(),
      static_cast<unsigned long long>(life.engine_gmw_calls),
      static_cast<unsigned long long>(life.tree_builds),
      static_cast<unsigned long long>(life.tree_reuses),
      static_cast<unsigned long long>(life.mux_groups),
      static_cast<unsigned long long>(life.mux_lanes),
      static_cast<unsigned long long>(life.mux_conflicts),
      static_cast<unsigned long long>(life.naive_rounds_estimate),
      life.stats.rounds == 0
          ? 0.0
          : static_cast<double>(life.naive_rounds_estimate) /
                static_cast<double>(life.stats.rounds));
  std::printf("executor: %u thread(s), %.1f ms wall inside Network::run "
              "(compute %.1f / transmit %.1f / merge %.1f cpu-ms; "
              "grain %zu)\n",
              life.stats.threads, life.stats.wall_ms, life.stats.compute_ms,
              life.stats.transmit_ms, life.stats.merge_ms,
              net.dispatch_grain());

  if (!args.stats_json.empty()) {
    std::ofstream out(args.stats_json);
    if (!out) usage(("cannot write stats JSON: " + args.stats_json).c_str());
    std::ostringstream lifetime_json;
    lifetime_json << "{";
    append_run_stats(lifetime_json, life.stats);
    lifetime_json << ",\"batches\":" << life.batches
                  << ",\"requests\":" << life.requests
                  << ",\"walks\":" << life.walks
                  << ",\"full_prepares\":" << life.full_prepares
                  << ",\"replenishments\":" << life.replenishments
                  << ",\"replenished_walks\":" << life.replenished_walks
                  << ",\"stitches\":" << life.stitches
                  << ",\"inventory_hits\":" << life.inventory_hits
                  << ",\"inventory_hit_rate\":" << life.inventory_hit_rate()
                  << ",\"engine_gmw_calls\":" << life.engine_gmw_calls
                  << ",\"tree_builds\":" << life.tree_builds
                  << ",\"tree_reuses\":" << life.tree_reuses
                  << ",\"naive_rounds_estimate\":"
                  << life.naive_rounds_estimate
                  << ",\"mux_groups\":" << life.mux_groups
                  << ",\"mux_lanes\":" << life.mux_lanes
                  << ",\"mux_conflicts\":" << life.mux_conflicts
                  << ",\"rejected\":" << life.rejected
                  << ",\"held_tokens\":" << life.held_tokens
                  << ",\"unused_tokens\":" << life.unused_tokens
                  << ",\"gmw_records\":" << life.gmw_records
                  << ",\"gmw_records_freed\":" << life.gmw_records_freed
                  << "}";
    out << "{\"batches\":[\n" << batches_json.str() << "\n],\n"
        << "\"lifetime\":" << lifetime_json.str() << ",\n"
        << "\"executor\":{\"dispatch_grain\":" << net.dispatch_grain()
        << ",\"graph_source\":\"" << config.graph_source << "\"},\n"
        << "\"registry\":" << obs::Registry::global().snapshot_json()
        << "}\n";
    std::printf("stats json: %s\n", args.stats_json.c_str());
  }

  // Cross-check metadata for tools/validate_trace.py (the per-shard
  // transmit span sum is only comparable to the driver's transmit_ms when
  // one shard transmits at a time, i.e. threads == 1).
  if (obs::trace_enabled()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_meta("transmit_ms", life.stats.transmit_ms);
    tracer.set_meta("threads", double(life.stats.threads));
    tracer.set_meta("mux_width", double(service.mux_width()));
  }
  return 0;
}

/// TCP client for a `drw serve --listen` server: sends the request file,
/// prints the same `result[IDX] ...` lines an offline replay of the
/// server's admission log prints (the server-smoke byte-identity check).
int cmd_request(const Args& args) {
  if (args.connect.empty()) usage("request needs --connect=HOST:PORT");
  if (args.requests_file.empty()) usage("request needs --requests=FILE");
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  const auto colon = args.connect.rfind(':');
  if (colon == std::string::npos) {
    port = static_cast<std::uint16_t>(
        std::strtoul(args.connect.c_str(), nullptr, 10));
  } else {
    host = args.connect.substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::strtoul(args.connect.c_str() + colon + 1, nullptr, 10));
  }
  const RequestFileData data = parse_request_entries(args.requests_file);
  if (data.entries.empty()) usage("no requests to send");

  net::Socket sock = net::tcp_connect(host, port, args.io_timeout_ms);
  net::HelloFrame hello;
  hello.klass = args.klass;
  net::FrameType type{};
  std::vector<std::uint8_t> payload;
  if (!net::write_frame(sock, net::FrameType::kHello,
                        net::encode_hello(hello), args.io_timeout_ms) ||
      !net::read_frame(sock, &type, &payload, args.io_timeout_ms) ||
      type != net::FrameType::kHello) {
    std::fprintf(stderr, "request: HELLO handshake failed\n");
    return 1;
  }
  const auto reply = net::decode_hello(payload.data(), payload.size());
  if (!reply || reply->version != net::kProtocolVersion) {
    std::fprintf(stderr, "request: protocol version mismatch\n");
    return 1;
  }

  for (std::size_t i = 0; i < data.entries.size(); ++i) {
    const RequestEntry& e = data.entries[i];
    net::RequestFrame frame;
    frame.tag = i;  // response lookup key into data.entries
    frame.source = e.source;
    frame.length = e.length;
    frame.count = e.count;
    frame.deadline_ms = args.deadline_ms;
    frame.record = e.record;
    if (!net::write_frame(sock, net::FrameType::kRequest,
                          net::encode_request(frame), args.io_timeout_ms)) {
      std::fprintf(stderr, "request: send failed at request %zu\n", i);
      return 1;
    }
  }

  std::vector<net::ResponseFrame> responses;
  while (responses.size() < data.entries.size()) {
    if (!net::read_frame(sock, &type, &payload, args.io_timeout_ms) ||
        type != net::FrameType::kResponse) {
      std::fprintf(stderr, "request: connection lost after %zu/%zu responses\n",
                   responses.size(), data.entries.size());
      return 1;
    }
    auto frame = net::decode_response(payload.data(), payload.size());
    if (!frame || frame->tag >= data.entries.size()) {
      std::fprintf(stderr, "request: malformed response\n");
      return 1;
    }
    responses.push_back(std::move(*frame));
  }

  // Admitted responses in admission order first (the replay-comparable
  // lines), then pre-admission rejects by tag.
  std::sort(responses.begin(), responses.end(),
            [](const net::ResponseFrame& a, const net::ResponseFrame& b) {
              const bool ra = a.admission_index == net::kNotAdmitted;
              const bool rb = b.admission_index == net::kNotAdmitted;
              if (ra != rb) return rb;
              return ra ? a.tag < b.tag
                        : a.admission_index < b.admission_index;
            });
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  for (const net::ResponseFrame& r : responses) {
    const RequestEntry& e = data.entries[r.tag];
    if (r.admission_index == net::kNotAdmitted) {
      ++rejected;
      std::printf("rejected tag=%llu source=%llu status=%s\n",
                  static_cast<unsigned long long>(r.tag),
                  static_cast<unsigned long long>(e.source),
                  service::to_string(
                      static_cast<service::RequestStatus>(r.status)));
      continue;
    }
    ++admitted;
    print_result_lines(r.admission_index, e.source, e.length, e.count,
                       r.status, r.destinations, r.paths);
  }
  std::printf("responses: %llu admitted, %llu rejected (server nodes=%llu)\n",
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(reply->node_count));
  return 0;
}

int cmd_rst(const Args& args, const CliGraph& cg, std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  const auto result =
      apps::random_spanning_tree(net, args.root, core::Params::paper(),
                                 diameter);
  std::printf("random spanning tree: %zu edges, rounds=%llu cover=%llu "
              "phases=%u valid=%s\n",
              result.tree.edges.size(),
              static_cast<unsigned long long>(result.stats.rounds),
              static_cast<unsigned long long>(result.cover_length),
              result.phases,
              is_spanning_tree(g, result.tree) ? "yes" : "NO");
  for (const auto& [u, v] : result.tree.edges) {
    std::printf("%u-%u ", cg.lg.to_user(u), cg.lg.to_user(v));
  }
  std::printf("\n");
  return 0;
}

int cmd_mixing(const Args& args, const CliGraph& cg, std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  core::Params params = core::Params::paper();
  params.transition = args.model;
  apps::MixingOptions options;
  options.samples = args.samples;
  const auto est =
      apps::estimate_mixing_time(net, args.source, params, diameter, options);
  std::printf("mixing time ~ %llu steps (converged=%s, rounds=%llu, K=%u)\n",
              static_cast<unsigned long long>(est.tau),
              est.converged ? "yes" : "no",
              static_cast<unsigned long long>(est.stats.rounds),
              est.samples);
  std::printf("spectral gap in [%.5f, %.5f]; conductance in [%.5f, %.5f]\n",
              est.gap_lower, est.gap_upper, est.conductance_lower,
              est.conductance_upper);
  return 0;
}

int cmd_expander(const Args& args, const CliGraph& cg,
                 std::uint32_t diameter) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  apps::MixingOptions options;
  options.samples = args.samples;
  const auto verdict = apps::check_expander(
      net, args.source, core::Params::paper(), diameter, 2.0, options);
  std::printf("expander: %s (tau=%llu threshold=%.0f gap>=%.4f "
              "rounds=%llu)\n",
              verdict.is_expander ? "YES" : "no",
              static_cast<unsigned long long>(verdict.tau),
              verdict.threshold, verdict.gap_lower,
              static_cast<unsigned long long>(verdict.stats.rounds));
  return 0;
}

int cmd_pagerank(const Args& args, const CliGraph& cg, std::uint32_t) {
  const Graph& g = cg.lg.graph;
  congest::Network net(g, args.seed);
  configure_threads(net, args);
  apps::PageRankOptions options;
  options.alpha = args.alpha;
  options.tokens_per_node = args.tokens;
  const auto result = apps::estimate_pagerank(net, options);
  std::printf("pagerank (alpha=%.2f, %llu tokens, rounds=%llu), top 10:\n",
              args.alpha,
              static_cast<unsigned long long>(result.total_tokens),
              static_cast<unsigned long long>(result.stats.rounds));
  std::vector<NodeId> order(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return result.scores[a] > result.scores[b];
  });
  for (std::size_t i = 0; i < order.size() && i < 10; ++i) {
    std::printf("  node %-6u deg %-4u score %.5f\n",
                cg.lg.to_user(order[i]), g.degree(order[i]),
                result.scores[order[i]]);
  }
  return 0;
}

void print_ingest_stats(const ParseStats& s) {
  if (s.bytes == 0) return;
  const double total_ms = s.read_ms + s.parse_ms + s.build_ms;
  std::printf("ingest: %llu bytes / %llu lines / %llu edge rows | "
              "read %.1f ms, parse %.1f ms (%u threads), build %.1f ms | "
              "%.2f M edges/s\n",
              static_cast<unsigned long long>(s.bytes),
              static_cast<unsigned long long>(s.lines),
              static_cast<unsigned long long>(s.edges), s.read_ms,
              s.parse_ms, s.threads, s.build_ms,
              total_ms <= 0.0
                  ? 0.0
                  : static_cast<double>(s.edges) / (1e3 * total_ms));
}

int cmd_convert(const Args& args) {
  if (args.positional.size() != 2) {
    usage("convert needs two paths: drw convert IN.txt OUT.csr");
  }
  const std::string& in = args.positional[0];
  const std::string& out = args.positional[1];
  EdgeListOptions options;
  options.no_header = args.no_header;
  if (args.no_relabel) {
    ParseStats stats;
    const Graph g = read_edge_list_file(in, args.threads, &stats, options);
    csr::write_csr_file(out, g, {});
    std::printf("converted %s -> %s (no relabel): %s\n", in.c_str(),
                out.c_str(), g.summary().c_str());
    print_ingest_stats(stats);
  } else {
    const csr::LoadedGraph loaded = csr::convert_edge_list(in, out,
                                                           args.threads,
                                                           options);
    std::printf("converted %s -> %s: %s\n", in.c_str(), out.c_str(),
                loaded.graph.summary().c_str());
    std::printf("relabel: degree-ordered (internal id 0 = highest degree); "
                "old<->new map stored in the file\n");
    print_ingest_stats(loaded.stats);
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const lowerbound::Gadget gadget = lowerbound::build_gadget(args.l);
  congest::Network net(gadget.graph, args.seed);
  configure_threads(net, args);
  std::vector<NodeId> sequence;
  for (std::uint64_t i = 1; i <= args.l + 1; ++i) {
    sequence.push_back(gadget.path_node(i));
  }
  const auto result =
      lowerbound::verify_path(net, sequence, gadget.root());
  std::printf("path verification on G_n (l=%llu, n=%zu): verified=%s "
              "rounds=%llu  k=sqrt(l/log l)=%llu  D=%u\n",
              static_cast<unsigned long long>(args.l),
              gadget.graph.node_count(), result.verified ? "yes" : "NO",
              static_cast<unsigned long long>(result.stats.rounds),
              static_cast<unsigned long long>(gadget.k),
              double_sweep_diameter_estimate(gadget.graph, gadget.root()));
  return 0;
}

}  // namespace

namespace {

int run_command(const Args& args) {
  if (args.command == "verify") return cmd_verify(args);
  if (args.command == "convert") return cmd_convert(args);
  if (args.command == "request") return cmd_request(args);

  const CliGraph cg = load_cli_graph(args);
  const Graph& g = cg.lg.graph;
  // Exact diameter is O(n(n+m)) -- fine for the small generator suite,
  // prohibitive for real datasets. File graphs use the O(n+m) double-sweep
  // estimate; it is a pure function of the (relabeled) topology, so text
  // and CSR loads of the same file agree and bit-identity is unaffected.
  const std::uint32_t diameter =
      cg.from_file ? double_sweep_diameter_estimate(g, 0) : exact_diameter(g);
  std::printf("graph %s: %s, D=%u%s\n", args.graph_spec.c_str(),
              g.summary().c_str(), diameter,
              cg.from_file ? " (double-sweep estimate)" : "");
  // Machine-greppable provenance line (tools/crash_harness.py keys on
  // "graph: csr" vs "graph: text" to assert fallback behavior).
  std::printf("graph: %s%s%s%s\n",
              cg.from_file ? (cg.lg.from_csr ? "csr" : "text") : "generator",
              cg.lg.note.empty() ? "" : " (", cg.lg.note.c_str(),
              cg.lg.note.empty() ? "" : ")");
  if (cg.from_file) print_ingest_stats(cg.lg.stats);

  // Commands run in the internal id space; --source/--root arrive in the
  // user's id space and are translated here (identity for generators).
  Args run = args;
  run.source = cg.lg.to_internal(args.source);
  run.root = cg.lg.to_internal(args.root);
  if (run.source == kInvalidNode || run.root == kInvalidNode) {
    usage("--source/--root out of range");
  }

  if (args.command == "walk") return cmd_walk(run, cg, diameter);
  if (args.command == "many") return cmd_many(run, cg, diameter);
  if (args.command == "serve" || args.command == "batch") {
    return cmd_serve(run, cg, diameter);
  }
  if (args.command == "rst") return cmd_rst(run, cg, diameter);
  if (args.command == "mixing") return cmd_mixing(run, cg, diameter);
  if (args.command == "expander") return cmd_expander(run, cg, diameter);
  if (args.command == "pagerank") return cmd_pagerank(run, cg, diameter);
  usage(("unknown command: " + args.command).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // --trace arms the process-wide tracer exactly like DRW_TRACE=FILE
  // (which the obs static initializer has already honoured by this point).
  if (!args.trace_file.empty()) {
    obs::Tracer::instance().enable(args.trace_file);
  }
  // Bad inputs (malformed graph files, failed snapshot writes, injected
  // faults) surface as exceptions; report them as errors, not a terminate.
  int rc = 1;
  try {
    rc = run_command(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  if (obs::trace_enabled()) {
    obs::Tracer::instance().flush();
    std::printf("trace: %s (%llu events dropped)\n",
                obs::Tracer::instance().path().c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::instance().dropped()));
  }
  return rc;
}
