#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace drw {
namespace {

TEST(GraphIo, ParsesBasicEdgeList) {
  std::istringstream in("0 1\n1 2\n2 0\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(GraphIo, IgnoresCommentsAndBlanks) {
  std::istringstream in(
      "# a comment\n% another style\n\n0 1\n\n# trailing\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphIo, NodeHeaderRaisesNodeCount) {
  std::istringstream in("# nodes 10\n0 1\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphIo, CoalescesDuplicatesAndReversals) {
  std::istringstream in("0 1\n1 0\n0 1\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::istringstream in("0\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3 3\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("-1 2\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("# only comments\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
}

TEST(GraphIo, RejectsIdRangeViolationsWithLineNumbers) {
  {
    // Id overflows the 32-bit node id space (kInvalidNode is reserved).
    std::istringstream in("0 1\n2 4294967295\n");
    try {
      read_edge_list(in);
      FAIL() << "overflowing id accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
          << e.what();
    }
  }
  {
    // Id at/above the declared node count, header first.
    std::istringstream in("# nodes 4\n0 1\n2 7\n");
    try {
      read_edge_list(in);
      FAIL() << "id above declared header accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("declared"), std::string::npos)
          << e.what();
    }
  }
  {
    // Header after the edge block still validates earlier lines.
    std::istringstream in("0 9\n# nodes 4\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    // Conflicting duplicate headers.
    std::istringstream in("# nodes 4\n0 1\n# nodes 9\n");
    try {
      read_edge_list(in);
      FAIL() << "conflicting duplicate header accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
          << e.what();
    }
  }
  {
    // A repeated header with the SAME value stays legal.
    std::istringstream in("# nodes 4\n0 1\n# nodes 4\n");
    EXPECT_EQ(read_edge_list(in).node_count(), 4u);
  }
}

TEST(GraphIo, RejectsTruncatedFiles) {
  {
    // File cut mid-line: the final record carries one id and no newline.
    std::istringstream in("0 1\n1 2\n2");
    try {
      read_edge_list(in);
      FAIL() << "truncated final line accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  {
    // File cut to nothing (created, then the writer died before any row).
    std::istringstream in("");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    // Cut right after the header is still a valid (edgeless) declaration.
    std::istringstream in("# nodes 3\n");
    EXPECT_EQ(read_edge_list(in).node_count(), 3u);
  }
}

TEST(GraphIo, RoundTripsThroughStreams) {
  Rng rng(5);
  const Graph g = gen::random_geometric(40, 0.3, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      EXPECT_TRUE(back.has_edge(v, u));
    }
  }
}

TEST(GraphIo, RoundTripsThroughFiles) {
  const Graph g = gen::torus(4, 5);
  const std::string path = "/tmp/drw_io_test_graph.txt";
  write_edge_list_file(path, g);
  const Graph back = read_edge_list_file(path);
  EXPECT_EQ(back.node_count(), g.node_count());
  EXPECT_EQ(back.edge_count(), g.edge_count());
  EXPECT_EQ(exact_diameter(back), exact_diameter(g));
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

// ------------------------------------------------------- bulk parallel parse

// The bulk parser must produce CSR arrays identical to the serial one at
// every thread count, on every input shape that exercises the chunk
// stitching: missing trailing newline, CRLF, comments/blanks between edges,
// duplicate and reversed edges, and a mid-file '# nodes' header.
TEST(GraphIo, ParallelParseMatchesSerialAtEveryThreadCount) {
  const char* inputs[] = {
      "0 1\n1 2\n2 0\n",
      "0 1\n1 2\n2 3",  // no trailing newline
      "0 1\r\n1 2\r\n2 0\r\n",
      "# c\n% c\n\n0 1\n\n1 2\n# t\n2 0\n",
      "0 1\n1 0\n0 1\n2 1\n",
      "# nodes 12\n0 1\n5 9\n",
      "3 4\n# nodes 12\n0 1\n",  // header after edges, still in range
  };
  for (const char* input : inputs) {
    const Graph serial = parse_edge_list(input);
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      const Graph parallel = parse_edge_list_parallel(input, threads);
      ASSERT_EQ(parallel.node_count(), serial.node_count())
          << "threads=" << threads << " input=" << input;
      ASSERT_EQ(parallel.offsets().size(), serial.offsets().size());
      for (std::size_t i = 0; i < serial.offsets().size(); ++i) {
        ASSERT_EQ(parallel.offsets()[i], serial.offsets()[i])
            << "threads=" << threads << " input=" << input;
      }
      ASSERT_EQ(parallel.adjacency().size(), serial.adjacency().size());
      for (std::size_t i = 0; i < serial.adjacency().size(); ++i) {
        ASSERT_EQ(parallel.adjacency()[i], serial.adjacency()[i])
            << "threads=" << threads << " input=" << input;
      }
    }
  }
}

TEST(GraphIo, ParallelParseMatchesSerialOnALargeGraph) {
  Rng rng(17);
  const Graph g = gen::random_geometric(300, 0.12, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const std::string text = buffer.str();
  const Graph serial = parse_edge_list(text);
  // 5000 is far above the shared worker cap: it must be clamped, not
  // honored with one OS thread per chunk.
  for (const unsigned threads : {2u, 8u, 5000u}) {
    ParseStats stats;
    const Graph parallel = parse_edge_list_parallel(text, threads, &stats);
    EXPECT_LE(stats.threads, 256u) << "threads=" << threads;
    ASSERT_EQ(parallel.node_count(), serial.node_count());
    ASSERT_EQ(parallel.edge_count(), serial.edge_count());
    for (NodeId v = 0; v < serial.node_count(); ++v) {
      const auto a = serial.neighbors(v);
      const auto b = parallel.neighbors(v);
      ASSERT_EQ(a.size(), b.size()) << "node " << v;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "node " << v << " slot " << i;
      }
    }
  }
}

// Diagnostics carry the same line numbers and messages no matter how many
// workers parsed the file.
TEST(GraphIo, ParallelParseKeepsSerialDiagnostics) {
  const char* inputs[] = {
      "0 1\n1 2\n3\n2 0\n",          // expected two node IDs (line 3)
      "0 1\n-3 2\n",                 // negative node ID (line 2)
      "0 1\n5000000000 2\n",         // id overflows 32 bits (line 2)
      "0 1\n7 7\n0 2\n",             // self-loop (line 2)
      "# nodes 3\n0 1\n1 9\n",       // exceeds declared header (line 3)
      "0 1\n# nodes 4\n# nodes 9\n", // conflicting duplicate header (line 3)
  };
  for (const char* input : inputs) {
    std::string serial_what;
    try {
      parse_edge_list(input);
    } catch (const std::invalid_argument& e) {
      serial_what = e.what();
    }
    ASSERT_FALSE(serial_what.empty()) << input;
    for (const unsigned threads : {2u, 8u}) {
      try {
        parse_edge_list_parallel(input, threads);
        FAIL() << "threads=" << threads << " input=" << input;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), serial_what)
            << "threads=" << threads << " input=" << input;
      }
    }
  }
}

TEST(GraphIo, ParseStatsCountBytesLinesAndEdges) {
  const Graph g = gen::torus(4, 5);
  const std::string path = "/tmp/drw_io_stats_graph.txt";
  write_edge_list_file(path, g);
  ParseStats stats;
  const Graph back = read_edge_list_file(path, 2, &stats);
  EXPECT_EQ(back.edge_count(), g.edge_count());
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.edges, g.edge_count());
  EXPECT_GE(stats.lines, stats.edges);
  EXPECT_EQ(stats.threads, 2u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- --no-header

TEST(GraphIo, NoHeaderIgnoresDeclaredCount) {
  EdgeListOptions options;
  options.no_header = true;
  const Graph g = parse_edge_list("# nodes 10\n0 1\n", options);
  EXPECT_EQ(g.node_count(), 2u);  // max id + 1, the header is a comment
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphIo, NoHeaderLiftsTheDeclaredCountContract) {
  const char* input = "# nodes 4\n0 1\n2 7\n";
  EXPECT_THROW(parse_edge_list(input), std::invalid_argument);
  EdgeListOptions options;
  options.no_header = true;
  const Graph g = parse_edge_list(input, options);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(GraphIo, NoHeaderIgnoresConflictingAndOverflowingHeaders) {
  EdgeListOptions options;
  options.no_header = true;
  // Conflicting duplicate headers: an error normally, comments here.
  const Graph g = parse_edge_list("# nodes 4\n0 1\n# nodes 9\n", options);
  EXPECT_EQ(g.node_count(), 2u);
  // A header whose count overflows the id space: same.
  const Graph h =
      parse_edge_list("# nodes 99999999999\n0 1\n", options);
  EXPECT_EQ(h.node_count(), 2u);
}

TEST(GraphIo, NoHeaderParallelMatchesSerialAtEveryThreadCount) {
  EdgeListOptions options;
  options.no_header = true;
  const char* inputs[] = {
      "# nodes 10\n0 1\n1 2\n",
      "# nodes 2\n0 1\n5 9\n",   // ids beyond the (ignored) header
      "0 1\n# nodes 4\n# nodes 9\n2 3\n",
  };
  for (const char* input : inputs) {
    const Graph serial = parse_edge_list(input, options);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const Graph parallel =
          parse_edge_list_parallel(input, threads, nullptr, options);
      ASSERT_EQ(parallel.node_count(), serial.node_count())
          << "threads=" << threads << " input=" << input;
      ASSERT_EQ(parallel.edge_count(), serial.edge_count())
          << "threads=" << threads << " input=" << input;
      for (NodeId v = 0; v < serial.node_count(); ++v) {
        const auto a = serial.neighbors(v);
        const auto b = parallel.neighbors(v);
        ASSERT_EQ(a.size(), b.size()) << "node " << v;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "node " << v << " slot " << i;
        }
      }
    }
  }
}

TEST(GraphIo, NoHeaderStillRejectsRealLineErrors) {
  EdgeListOptions options;
  options.no_header = true;
  EXPECT_THROW(parse_edge_list("0 1\n7 7\n", options),
               std::invalid_argument);  // self-loops stay errors
  EXPECT_THROW(parse_edge_list("# nodes 3\n", options),
               std::invalid_argument);  // header-only file is now empty
}

}  // namespace
}  // namespace drw
