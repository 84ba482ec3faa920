// Binary CSR graph cache tier-1 (drw::csr): round-trip equality, degree
// relabeling invariants, text-vs-CSR serving bit-identity across thread
// count x mux width, corruption/torn-file rejection with text
// fallback, mmap view lifetime, and resil fingerprint agreement between
// mmap'd and parsed loads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/params.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "resil/failpoint.hpp"
#include "resil/snapshot.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"

namespace drw {
namespace {

using service::BatchReport;
using service::ServiceConfig;
using service::WalkRequest;
using service::WalkService;

std::string tmp_path(const char* name) { return ::testing::TempDir() + name; }

/// A deterministic, irregular test graph (mixed degrees so relabeling is
/// not the identity), written as a text edge list.
Graph make_graph() {
  Rng rng(808);
  return gen::power_law(64, 3, rng);
}

std::string write_text_graph(const char* name) {
  const std::string path = tmp_path(name);
  write_edge_list_file(path, make_graph());
  return path;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void expect_graphs_equal(const Graph& a, const Graph& b, const char* label) {
  ASSERT_EQ(a.node_count(), b.node_count()) << label;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << label;
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  ASSERT_EQ(ao.size(), bo.size()) << label;
  for (std::size_t i = 0; i < ao.size(); ++i) {
    ASSERT_EQ(ao[i], bo[i]) << label << " offset " << i;
  }
  const auto aa = a.adjacency();
  const auto ba = b.adjacency();
  ASSERT_EQ(aa.size(), ba.size()) << label;
  for (std::size_t i = 0; i < aa.size(); ++i) {
    ASSERT_EQ(aa[i], ba[i]) << label << " adjacency " << i;
  }
}

// --------------------------------------------------------------- relabeling

TEST(CsrFile, DegreeRelabelIsAPermutationSortedByDegree) {
  const Graph g = make_graph();
  const csr::Relabeling rel = csr::degree_relabel(g);
  const std::size_t n = g.node_count();
  ASSERT_EQ(rel.graph.node_count(), n);
  ASSERT_EQ(rel.graph.edge_count(), g.edge_count());
  ASSERT_EQ(rel.new_to_old.size(), n);
  ASSERT_EQ(rel.old_to_new.size(), n);

  // Inverse permutations of [0, n).
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId old = rel.new_to_old[i];
    ASSERT_LT(old, n);
    EXPECT_FALSE(seen[old]) << "duplicate old id " << old;
    seen[old] = true;
    EXPECT_EQ(rel.old_to_new[old], static_cast<NodeId>(i));
  }

  // New ids are ordered by descending degree (ties by ascending old id) and
  // each node keeps its degree through the rename.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rel.graph.degree(static_cast<NodeId>(i)),
              g.degree(rel.new_to_old[i]));
    if (i + 1 < n) {
      const std::uint32_t di = g.degree(rel.new_to_old[i]);
      const std::uint32_t dj = g.degree(rel.new_to_old[i + 1]);
      EXPECT_TRUE(di > dj ||
                  (di == dj && rel.new_to_old[i] < rel.new_to_old[i + 1]));
    }
  }

  // Topology is preserved: (u, v) is an edge iff its renamed pair is.
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      EXPECT_TRUE(rel.graph.has_edge(rel.old_to_new[v], rel.old_to_new[u]));
    }
  }
}

// --------------------------------------------------------------- round trip

TEST(CsrFile, WriteReadRoundTripPreservesArraysAndMaps) {
  const std::string text = write_text_graph("drw_csr_rt.txt");
  const std::string bin = text + ".csr";
  const csr::LoadedGraph converted = csr::convert_edge_list(text, bin);
  ASSERT_FALSE(converted.from_csr);

  const csr::ReadOutcome out = csr::read_csr_file(bin);
  ASSERT_TRUE(out.loaded.has_value()) << out.error;
  const csr::LoadedGraph& loaded = *out.loaded;
  EXPECT_TRUE(loaded.from_csr);
  EXPECT_TRUE(loaded.graph.is_view());
  expect_graphs_equal(loaded.graph, converted.graph, "round trip");
  EXPECT_EQ(loaded.new_to_old, converted.new_to_old);
  EXPECT_EQ(loaded.old_to_new, converted.old_to_new);

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(CsrFile, UnrelabeledFileHasIdentityTranslation) {
  const Graph g = make_graph();
  const std::string bin = tmp_path("drw_csr_norelabel.csr");
  csr::write_csr_file(bin, g, {});
  const csr::ReadOutcome out = csr::read_csr_file(bin);
  ASSERT_TRUE(out.loaded.has_value()) << out.error;
  EXPECT_TRUE(out.loaded->new_to_old.empty());
  expect_graphs_equal(out.loaded->graph, g, "no-relabel");
  EXPECT_EQ(out.loaded->to_internal(5), 5u);
  EXPECT_EQ(out.loaded->to_user(5), 5u);
  EXPECT_EQ(out.loaded->to_internal(static_cast<NodeId>(g.node_count())),
            kInvalidNode);
  std::remove(bin.c_str());
}

TEST(CsrFile, FingerprintAgreesBetweenMmapAndParsedLoads) {
  const std::string text = write_text_graph("drw_csr_fp.txt");
  const std::string bin = text + ".csr";
  csr::convert_edge_list(text, bin);

  const csr::LoadedGraph from_text = csr::load_graph(text);
  const csr::LoadedGraph from_csr = csr::load_graph(bin);
  ASSERT_FALSE(from_text.from_csr);
  ASSERT_TRUE(from_csr.from_csr);
  // The resil fingerprint guards warm restarts: a snapshot taken while
  // serving the text parse must warm-start a server that mmap'd the CSR.
  EXPECT_EQ(resil::graph_fingerprint(from_text.graph, 4242),
            resil::graph_fingerprint(from_csr.graph, 4242));

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(CsrFile, ViewOutlivesLoadedGraphViaCopy) {
  const std::string text = write_text_graph("drw_csr_life.txt");
  const std::string bin = text + ".csr";
  const csr::LoadedGraph converted = csr::convert_edge_list(text, bin);

  Graph copy;
  {
    const csr::ReadOutcome out = csr::read_csr_file(bin);
    ASSERT_TRUE(out.loaded.has_value()) << out.error;
    copy = out.loaded->graph;  // shares the refcounted mmap backing
  }  // LoadedGraph destroyed; `copy` must keep the mapping alive
  EXPECT_TRUE(copy.is_view());
  expect_graphs_equal(copy, converted.graph, "copied view");

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

// ------------------------------------------------- corruption and fallback

TEST(CsrFile, RejectsCorruptTornAndForeignFiles) {
  const std::string text = write_text_graph("drw_csr_bad.txt");
  const std::string bin = text + ".csr";
  csr::convert_edge_list(text, bin);
  const std::vector<std::uint8_t> good = slurp(bin);
  ASSERT_GT(good.size(), 64u);
  const std::string bad = tmp_path("drw_csr_bad_case.csr");

  struct Case {
    const char* what;
    std::vector<std::uint8_t> (*mutate)(std::vector<std::uint8_t>);
    const char* expect;
  };
  const Case cases[] = {
      {"garbage magic",
       [](std::vector<std::uint8_t> b) {
         b[0] ^= 0xFF;
         return b;
       },
       "bad magic"},
      {"wrong version",
       [](std::vector<std::uint8_t> b) {
         b[8] = 99;
         return b;
       },
       "unsupported CSR version"},
      {"wrong endianness",
       [](std::vector<std::uint8_t> b) {
         std::swap(b[12], b[15]);
         std::swap(b[13], b[14]);
         return b;
       },
       "wrong endianness"},
      {"truncated payload",
       [](std::vector<std::uint8_t> b) {
         b.resize(b.size() - 7);
         return b;
       },
       "payload size mismatch"},
      {"flipped payload byte",
       [](std::vector<std::uint8_t> b) {
         b[b.size() / 2] ^= 0x01;
         return b;
       },
       "checksum mismatch"},
      {"header-only stub",
       [](std::vector<std::uint8_t> b) {
         b.resize(16);
         return b;
       },
       "truncated header"},
  };
  for (const Case& c : cases) {
    dump(bad, c.mutate(good));
    const csr::ReadOutcome out = csr::read_csr_file(bad);
    EXPECT_FALSE(out.loaded.has_value()) << c.what;
    EXPECT_NE(out.error.find(c.expect), std::string::npos)
        << c.what << ": got '" << out.error << "'";
  }

  // A forged node count with a matching recomputed CRC must still be caught
  // by the structural size check (never UB).
  {
    std::vector<std::uint8_t> b = good;
    std::uint64_t n = 0;
    std::memcpy(&n, b.data() + 32, 8);
    n += 1;
    std::memcpy(b.data() + 32, &n, 8);
    const std::uint32_t crc = resil::crc32(b.data() + 32, b.size() - 32);
    std::memcpy(b.data() + 24, &crc, 4);
    dump(bad, b);
    const csr::ReadOutcome out = csr::read_csr_file(bad);
    EXPECT_FALSE(out.loaded.has_value());
    EXPECT_NE(out.error.find("size inconsistent"), std::string::npos)
        << out.error;
  }

  std::remove(text.c_str());
  std::remove(bin.c_str());
  std::remove(bad.c_str());
}

TEST(CsrFile, CorruptCsrFallsBackToTextSiblingBitIdentically) {
  const std::string text = write_text_graph("drw_csr_fb.txt");
  const std::string bin = text + ".csr";
  csr::convert_edge_list(text, bin);
  const csr::LoadedGraph direct = csr::load_graph(text);

  // Tear the cache; load_graph must degrade to re-parsing the sibling.
  std::vector<std::uint8_t> bytes = slurp(bin);
  bytes[40] ^= 0xFF;
  dump(bin, bytes);
  const csr::LoadedGraph fallback = csr::load_graph(bin);
  EXPECT_FALSE(fallback.from_csr);
  EXPECT_NE(fallback.note.find("csr rejected"), std::string::npos)
      << fallback.note;
  expect_graphs_equal(fallback.graph, direct.graph, "fallback");
  EXPECT_EQ(fallback.new_to_old, direct.new_to_old);

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(CsrFile, RejectedCsrWithoutSiblingThrows) {
  const std::string bin = tmp_path("drw_csr_orphan.csr");
  dump(bin, std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_THROW(csr::load_graph(bin), std::runtime_error);
  std::remove(bin.c_str());
}

TEST(CsrFile, ShortWriteFailpointProducesARejectedTornFile) {
  const std::string text = write_text_graph("drw_csr_torn.txt");
  const std::string bin = text + ".csr";
  resil::arm_failpoints("csr.write:short_write");
  csr::convert_edge_list(text, bin);
  EXPECT_GE(resil::failpoint_hits("csr.write"), 1u);
  resil::disarm_failpoints();

  const csr::ReadOutcome out = csr::read_csr_file(bin);
  EXPECT_FALSE(out.loaded.has_value());
  // Half the payload is missing, so the size check fires first.
  EXPECT_NE(out.error.find("payload size mismatch"), std::string::npos)
      << out.error;
  // ...and load_graph still serves the graph via the text sibling.
  const csr::LoadedGraph fallback = csr::load_graph(bin);
  EXPECT_FALSE(fallback.from_csr);

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

// --------------------------------------------------- serving bit-identity

ServiceConfig serve_config(unsigned mux) {
  ServiceConfig config;
  config.params = core::Params::paper();
  config.params.lambda_override = 4;  // stitching-heavy
  config.enable_paths = true;
  config.mux_width = mux;
  return config;
}

BatchReport serve_once(const csr::LoadedGraph& lg, unsigned threads,
                       const ServiceConfig& config, std::uint32_t diameter) {
  congest::Network net(lg.graph, 4242);
  net.set_threads(threads);
  WalkService service(net, diameter, config);
  // Sources in the USER id space, translated exactly like the CLI does.
  std::vector<WalkRequest> batch = {
      {lg.to_internal(1), 33, 3, true},
      {lg.to_internal(9), 25, 2, false},
      {lg.to_internal(4), 18, 2, true},
  };
  return service.serve(batch);
}

// The acceptance gate: a converted + mmap'd CSR serves bit-identically to
// the text parse at every thread count x mux width.
TEST(CsrFile, TextAndCsrServeBitIdenticallyAcrossThreadsAndMux) {
  const std::string text = write_text_graph("drw_csr_serve.txt");
  const std::string bin = text + ".csr";
  csr::convert_edge_list(text, bin);
  const csr::LoadedGraph from_text = csr::load_graph(text);
  const csr::LoadedGraph from_csr = csr::load_graph(bin);
  ASSERT_TRUE(from_csr.from_csr);
  const std::uint32_t diameter = exact_diameter(from_text.graph);

  for (const unsigned mux : {1u, 4u}) {
    const ServiceConfig config = serve_config(mux);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string label =
          "mux=" + std::to_string(mux) + " threads=" + std::to_string(threads);
      const BatchReport a = serve_once(from_text, threads, config, diameter);
      const BatchReport b = serve_once(from_csr, threads, config, diameter);

      ASSERT_EQ(a.results.size(), b.results.size()) << label;
      for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].status, b.results[i].status)
            << label << " request " << i;
        EXPECT_EQ(a.results[i].destinations, b.results[i].destinations)
            << label << " request " << i;
        EXPECT_EQ(a.results[i].paths, b.results[i].paths)
            << label << " request " << i;
      }
      EXPECT_EQ(a.stats.rounds, b.stats.rounds) << label;
      EXPECT_EQ(a.stats.messages, b.stats.messages) << label;
      EXPECT_EQ(a.stitches, b.stitches) << label;
      EXPECT_EQ(a.inventory_hits, b.inventory_hits) << label;
      EXPECT_EQ(a.mux_groups, b.mux_groups) << label;
      EXPECT_EQ(a.mux_conflicts, b.mux_conflicts) << label;
    }
  }

  std::remove(text.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace drw
