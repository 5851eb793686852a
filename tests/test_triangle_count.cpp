#include "algorithms/triangle_count.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/threading.hpp"

namespace probgraph::algo {
namespace {

/// O(n³) oracle for small graphs.
std::uint64_t brute_force_tc(const CsrGraph& g) {
  std::uint64_t count = 0;
  const VertexId n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (g.has_edge(a, c) && g.has_edge(b, c)) ++count;
      }
    }
  }
  return count;
}

TEST(TriangleCountExact, ClosedFormOracles) {
  // K_n has C(n,3) triangles.
  EXPECT_EQ(triangle_count_exact(gen::complete(10)), 120u);
  EXPECT_EQ(triangle_count_exact(gen::complete(3)), 1u);
  // Triangle-free families.
  EXPECT_EQ(triangle_count_exact(gen::star(50)), 0u);
  EXPECT_EQ(triangle_count_exact(gen::path(50)), 0u);
  EXPECT_EQ(triangle_count_exact(gen::cycle(50)), 0u);
  EXPECT_EQ(triangle_count_exact(gen::complete_bipartite(7, 9)), 0u);
  // 5 disjoint K_4s: 5 · C(4,3) = 20.
  EXPECT_EQ(triangle_count_exact(gen::clique_chain(5, 4)), 20u);
}

TEST(TriangleCountExact, EmptyAndTinyGraphs) {
  EXPECT_EQ(triangle_count_exact(GraphBuilder::from_edges({}, 5)), 0u);
  EXPECT_EQ(triangle_count_exact(GraphBuilder::from_edges({{0, 1}})), 0u);
}

TEST(TriangleCountExact, KernelsAgreeOnRandomGraphs) {
  const CsrGraph g = gen::kronecker(10, 12.0, 31);
  const auto merge = triangle_count_exact(g, ExactIntersect::kMerge);
  const auto gallop = triangle_count_exact(g, ExactIntersect::kGallop);
  const auto adaptive = triangle_count_exact(g, ExactIntersect::kAdaptive);
  EXPECT_EQ(merge, gallop);
  EXPECT_EQ(merge, adaptive);
}

TEST(TriangleCountExact, MatchesBruteForceOnSmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph g = gen::erdos_renyi(60, 0.15, seed);
    EXPECT_EQ(triangle_count_exact(g), brute_force_tc(g)) << "seed " << seed;
  }
}

TEST(TriangleCountExact, OrientedEntryPointMatches) {
  const CsrGraph g = gen::kronecker(9, 8.0, 7);
  const CsrGraph dag = degree_orient(g);
  EXPECT_EQ(triangle_count_exact(g), triangle_count_exact_oriented(dag));
}

class TcSketchSweep : public ::testing::TestWithParam<SketchKind> {};

TEST_P(TcSketchSweep, OrientedEstimateTracksExact) {
  const CsrGraph g = gen::kronecker(11, 16.0, 13);
  const auto exact = static_cast<double>(triangle_count_exact(g));
  ASSERT_GT(exact, 0.0);

  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.kind = GetParam();
  cfg.storage_budget = 0.33;
  cfg.budget_reference_bytes = g.memory_bytes();  // s is relative to G, not the DAG
  cfg.bf_hashes = 1;
  // Derived k on this small DAG would be 2–4 — the regime the paper flags
  // as needing "more careful parametrization" (§VIII-C). Pin a modest k.
  if (GetParam() != SketchKind::kBloomFilter) cfg.minhash_k = 16;
  // Single-hash sketches (1H, KMV) correlate errors across all edges of one
  // build, so a single seed can land far off; average a few builds, which
  // is the regime the paper's per-graph accuracy claims describe.
  double est = 0.0;
  constexpr int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    cfg.seed = 1 + s;
    const ProbGraph pg(dag, cfg);
    est += triangle_count_probgraph(pg, TcMode::kOriented);
  }
  est /= kSeeds;
  // §VIII headline: accuracy above 90% for many inputs; we allow 35%
  // relative error to keep the test robust across all four sketch kinds.
  EXPECT_NEAR(est / exact, 1.0, 0.35) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TcSketchSweep,
                         ::testing::Values(SketchKind::kBloomFilter, SketchKind::kKHash,
                                           SketchKind::kOneHash, SketchKind::kKmv),
                         [](const auto& info) { return to_string(info.param); });

TEST(TriangleCountProbGraph, FullModeMatchesTheoryEstimator) {
  // TĈ = ⅓ Σ_{(u,v)∈E} est|N_u ∩ N_v| over full neighborhoods.
  const CsrGraph g = gen::kronecker(10, 12.0, 19);
  const auto exact = static_cast<double>(triangle_count_exact(g));
  ProbGraphConfig cfg;
  cfg.storage_budget = 0.33;
  cfg.bf_hashes = 1;
  cfg.seed = 4;
  const ProbGraph pg(g, cfg);
  const double est = triangle_count_probgraph(pg, TcMode::kFull);
  // Full-neighborhood BF AND inflates on skewed graphs at tight budgets
  // (hash collisions between hub neighborhoods); the paper reports the same
  // overestimation tendency for AND on dense inputs (§VIII-B).
  EXPECT_NEAR(est / exact, 1.0, 0.6);
}

TEST(TriangleCountProbGraph, ExactOnCompleteGraphWithHugeSketch) {
  // With an over-provisioned 1-hash sketch (k >= d), MinHash keeps the whole
  // neighborhood and the estimate must be nearly exact.
  const CsrGraph g = gen::complete(32);
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 64;
  const ProbGraph pg(dag, cfg);
  const double est = triangle_count_probgraph(pg, TcMode::kOriented);
  EXPECT_NEAR(est, 4960.0, 4960.0 * 0.02);  // C(32,3)
}

TEST(TriangleCountProbGraph, ZeroOnTriangleFreeWithSaturatedSketch) {
  const CsrGraph dag = degree_orient(gen::star(64));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 128;
  const ProbGraph pg(dag, cfg);
  EXPECT_DOUBLE_EQ(triangle_count_probgraph(pg, TcMode::kOriented), 0.0);
}

TEST(TriangleCountProbGraph, SketchEstimatesAreIdenticalAtAnyThreadCount) {
  // kron:12:16 (pgtool's generator seed): far more than one 32-vertex
  // summation block, so an order-dependent sum would show in the low bits.
  const CsrGraph g = gen::kronecker(12, 16.0, 42);
  const CsrGraph dag = degree_orient(g);
  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash}) {
    for (const TcMode mode : {TcMode::kOriented, TcMode::kFull}) {
      ProbGraphConfig cfg;
      cfg.kind = kind;
      cfg.storage_budget = 0.25;
      const ProbGraph pg(mode == TcMode::kOriented ? dag : g, cfg);
      double at_one = 0.0, at_four = 0.0;
      {
        const util::ThreadScope one(1);
        at_one = triangle_count_probgraph(pg, mode);
      }
      {
        const util::ThreadScope four(4);
        at_four = triangle_count_probgraph(pg, mode);
      }
      EXPECT_GT(at_one, 0.0);
      EXPECT_EQ(at_one, at_four) << to_string(kind) << " mode=" << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace probgraph::algo
