#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace probgraph {
namespace {

TEST(GraphBuilder, SymmetrizesEdges) {
  const CsrGraph g = GraphBuilder::from_edges({{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, RemovesSelfLoops) {
  const CsrGraph g = GraphBuilder::from_edges({{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  const CsrGraph g = GraphBuilder::from_edges({{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, NeighborhoodsAreSorted) {
  const CsrGraph g = GraphBuilder::from_edges({{0, 5}, {0, 2}, {0, 9}, {0, 1}});
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 4u);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, InfersVertexCount) {
  const CsrGraph g = GraphBuilder::from_edges({{3, 7}});
  EXPECT_EQ(g.num_vertices(), 8u);
}

TEST(GraphBuilder, RespectsExplicitVertexCount) {
  const CsrGraph g = GraphBuilder::from_edges({{0, 1}}, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(GraphBuilder, EmptyEdgeList) {
  const CsrGraph g = GraphBuilder::from_edges({}, 4);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, MaxVertexIdThrows) {
  // No VertexId count covers id max(): `id + 1` would wrap to 0.
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  EXPECT_THROW(GraphBuilder::from_edges({{0, 1}, {kMax, 1}}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder::from_edges({{1, kMax}}, 10), std::invalid_argument);
  EXPECT_THROW(GraphBuilder::from_arcs({{kMax, 0}}), std::invalid_argument);
}

TEST(GraphBuilder, FromArcsKeepsDirection) {
  const CsrGraph dag = GraphBuilder::from_arcs({{0, 1}, {1, 2}});
  EXPECT_EQ(dag.degree(0), 1u);
  EXPECT_EQ(dag.degree(1), 1u);
  EXPECT_EQ(dag.degree(2), 0u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(GraphBuilder, FromArcsDeduplicatesAndDropsLoops) {
  const CsrGraph dag = GraphBuilder::from_arcs({{0, 1}, {0, 1}, {2, 2}});
  EXPECT_EQ(dag.num_directed_edges(), 1u);
}

TEST(GraphBuilder, LargeRandomGraphIsValid) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 3000; ++i) {
    edges.emplace_back(i % 97, (i * 31 + 7) % 101);
  }
  const CsrGraph g = GraphBuilder::from_edges(std::move(edges));
  EXPECT_NO_THROW(g.validate());
  // Symmetry: u in N(v) iff v in N(u).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) {
      EXPECT_TRUE(g.has_edge(u, v));
    }
  }
}

}  // namespace
}  // namespace probgraph
