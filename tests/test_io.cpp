#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace probgraph::io {
namespace {

// The line-at-a-time istringstream readers the scanner replaced, kept as
// the reference the equivalence tests compare against.
CsrGraph reference_read_edge_list(const std::string& path) {
  std::ifstream in(path);
  std::vector<Edge> edges;
  std::string line;
  VertexId declared_n = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      for (const std::string& tag : {std::string("n="), std::string("Nodes: ")}) {
        const auto pos = line.find(tag);
        if (pos != std::string::npos) {
          declared_n = std::max(
              declared_n, static_cast<VertexId>(std::strtoull(
                              line.c_str() + pos + tag.size(), nullptr, 10)));
        }
      }
      continue;
    }
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) throw std::runtime_error("malformed: " + line);
    edges.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return GraphBuilder::from_edges(std::move(edges), declared_n);
}

CsrGraph reference_read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // %%MatrixMarket header
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream hs(line);
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  hs >> rows >> cols >> nnz;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t r = 0, c = 0;
    if (!(ls >> r >> c)) throw std::runtime_error("malformed: " + line);
    edges.emplace_back(static_cast<VertexId>(r - 1), static_cast<VertexId>(c - 1));
  }
  return GraphBuilder::from_edges(std::move(edges),
                                  static_cast<VertexId>(std::max(rows, cols)));
}

void expect_same_csr(const CsrGraph& got, const CsrGraph& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()));
}

/// The message of the std::runtime_error `f` throws ("" if none).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "probgraph_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  void write_file(const std::string& name, const std::string& content) const {
    std::ofstream out(path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  const CsrGraph g = gen::kronecker(8, 4.0, 42);
  write_edge_list(g, path("g.el"));
  const CsrGraph h = read_edge_list(path("g.el"));
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST_F(IoTest, EdgeListSkipsComments) {
  write_file("c.el", "# comment\n% other comment\n0 1\n1 2\n");
  const CsrGraph g = read_edge_list(path("c.el"));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, EdgeListRejectsGarbage) {
  write_file("bad.el", "0 1\nnot numbers\n");
  EXPECT_THROW(read_edge_list(path("bad.el")), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list(path("nope.el")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketBasic) {
  write_file("m.mtx",
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "% a comment\n"
             "3 3 2\n"
             "1 2\n"
             "2 3\n");
  const CsrGraph g = read_matrix_market(path("m.mtx"));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST_F(IoTest, MatrixMarketIgnoresValues) {
  write_file("w.mtx",
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 2 3.75\n");
  const CsrGraph g = read_matrix_market(path("w.mtx"));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(IoTest, MatrixMarketRejectsBadHeader) {
  write_file("h.mtx", "not a matrix market file\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(path("h.mtx")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsZeroBasedIndices) {
  write_file("z.mtx",
             "%%MatrixMarket matrix coordinate pattern general\n"
             "2 2 1\n"
             "0 1\n");
  EXPECT_THROW(read_matrix_market(path("z.mtx")), std::runtime_error);
}

TEST_F(IoTest, EdgeListMatchesTheIstreamReader) {
  // kron:10 written with every accepted variation: comment lines of both
  // kinds, n= and Nodes: tags, tab separators, weight/timestamp columns.
  const CsrGraph g = gen::kronecker(10, 8.0, 3);
  std::ostringstream text;
  text << "# Directed graph: kron:10\n# Nodes: " << g.num_vertices() + 5
       << " Edges: " << g.num_edges() << "\n% konect-style header\n";
  std::size_t i = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u > v) continue;
      switch (i++ % 4) {
        case 0: text << u << ' ' << v << '\n'; break;
        case 1: text << u << '\t' << v << '\n'; break;
        case 2: text << u << " \t " << v << "\t1.5\n"; break;
        default: text << "  " << v << ' ' << u << " 3 1620000000\n"; break;
      }
      if (i % 1000 == 0) text << "# n=" << g.num_vertices() + 9 << "\n";
    }
  }
  write_file("k.el", text.str());
  const CsrGraph got = read_edge_list(path("k.el"));
  EXPECT_EQ(got.num_vertices(), g.num_vertices() + 9);
  expect_same_csr(got, reference_read_edge_list(path("k.el")));
}

TEST_F(IoTest, MatrixMarketMatchesTheIstreamReader) {
  const CsrGraph g = gen::kronecker(10, 8.0, 4);
  std::ostringstream text;
  text << "%%MatrixMarket matrix coordinate real general\n% comment\n%\n"
       << g.num_vertices() + 2 << ' ' << g.num_vertices() << ' ' << g.num_edges() << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) text << u + 1 << ' ' << v + 1 << ' ' << 0.25 * (u % 7) << '\n';
    }
  }
  write_file("k.mtx", text.str());
  const CsrGraph got = read_matrix_market(path("k.mtx"));
  EXPECT_EQ(got.num_vertices(), g.num_vertices() + 2);
  expect_same_csr(got, reference_read_matrix_market(path("k.mtx")));
}

TEST_F(IoTest, EdgeListRejectsOutOfRangeIds) {
  // -1 used to wrap to 4294967295 and 4294967296 to 0.
  for (const std::string bad : {"-1 1", "4294967295 1", "1 4294967296",
                                "12345678901234567890 1", "99999999999999999999 1"}) {
    write_file("big.el", "0 1\n" + bad + "\n");
    const std::string msg = error_of([&] { (void)read_edge_list(path("big.el")); });
    EXPECT_NE(msg.find(path("big.el") + ":2"), std::string::npos) << bad << ": " << msg;
  }
  write_file("ok.el", "0 1\n4294967294 1\n");
  EXPECT_EQ(read_edge_text(path("ok.el"), TextFormat::kEdgeList).edges.back().first,
            4294967294u);
}

TEST_F(IoTest, EdgeListRejectsOutOfRangeCounts) {
  write_file("n.el", "# n=4294967296\n0 1\n");
  EXPECT_NE(error_of([&] { (void)read_edge_list(path("n.el")); }).find(path("n.el") + ":1"),
            std::string::npos);
}

TEST_F(IoTest, EdgeListAcceptsCrlfAndBlankLines) {
  write_file("crlf.el", "0 1\r\n\r\n1 2\r\n");
  EXPECT_EQ(read_edge_list(path("crlf.el")).num_edges(), 2u);
  write_file("ws.el", "0 1\n  \n\t\n1 2\n");
  EXPECT_EQ(read_edge_list(path("ws.el")).num_edges(), 2u);
  write_file("indent.el", "  # n=9\n\t% c\n0 1\n");
  const CsrGraph g = read_edge_list(path("indent.el"));
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(IoTest, ScannerReportsPathAndLine) {
  EXPECT_EQ(error_of([] { (void)scan_edge_text("0 1\n1\n", TextFormat::kEdgeList, "g.el"); }),
            "malformed edge-list line at g.el:2: 1");
  EXPECT_EQ(error_of([] { (void)scan_edge_text("0 1\n1,2\n", TextFormat::kEdgeList, "g.el"); }),
            "malformed edge-list line at g.el:2: 1,2");
  EXPECT_EQ(error_of([] {
              (void)scan_edge_text("%%MatrixMarket\n2 2 1\n0 1\n", TextFormat::kMatrixMarket,
                                   "m.mtx");
            }),
            "MatrixMarket indices must be 1-based at m.mtx:3: 0 1");
  const EdgeText t = scan_edge_text("1 2 7\n3\t4", TextFormat::kEdgeList, "g.el");
  EXPECT_EQ(t.edges, (std::vector<Edge>{{1, 2}, {3, 4}}));
  EXPECT_EQ(t.declared_n, 0u);
}

TEST_F(IoTest, MatrixMarketNnzDoesNotSizeTheReservation) {
  // An untrusted nnz of 2^64 - 1 must not reserve 2^64 edges.
  const EdgeText t = scan_edge_text("%%MatrixMarket\n2 2 18446744073709551615\n1 2\n",
                                    TextFormat::kMatrixMarket, "m.mtx");
  EXPECT_EQ(t.edges, (std::vector<Edge>{{0, 1}}));
  EXPECT_LE(t.edges.capacity(), 16u);
}

TEST_F(IoTest, EdgeListReadsFromAFifo) {
  // Read until EOF, never sized up front: `<(zcat g.el.gz)` must work.
  ASSERT_EQ(::mkfifo(path("pipe.el").c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path("pipe.el"));
    for (VertexId v = 1; v < 5000; ++v) out << v - 1 << ' ' << v << '\n';
  });
  const CsrGraph g = read_edge_list(path("pipe.el"));
  writer.join();
  EXPECT_EQ(g.num_vertices(), 5000u);
  EXPECT_EQ(g.num_edges(), 4999u);
}

}  // namespace
}  // namespace probgraph::io
