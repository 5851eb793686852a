#include "algorithms/kclique.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/clique_count.hpp"
#include "algorithms/triangle_count.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/threading.hpp"

namespace probgraph::algo {
namespace {

std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) result = result * (n - i) / (i + 1);
  return result;
}

TEST(KCliqueExact, RejectsSmallK) {
  const CsrGraph g = gen::complete(5);
  EXPECT_THROW((void)kclique_count_exact(g, 2), std::invalid_argument);
}

TEST(KCliqueExact, CompleteGraphClosedForms) {
  const CsrGraph g = gen::complete(12);
  for (unsigned k = 3; k <= 7; ++k) {
    EXPECT_EQ(kclique_count_exact(g, k), choose(12, k)) << "k=" << k;
  }
}

TEST(KCliqueExact, DegeneratesToTriangleAndFourCliqueCounting) {
  const CsrGraph g = gen::kronecker(10, 16.0, 3);
  EXPECT_EQ(kclique_count_exact(g, 3), triangle_count_exact(g));
  EXPECT_EQ(kclique_count_exact(g, 4), four_clique_count_exact(g));
}

TEST(KCliqueExact, CliqueChainClosedForm) {
  // 6 disjoint K_7s: 6·C(7,5) five-cliques.
  const CsrGraph g = gen::clique_chain(6, 7);
  EXPECT_EQ(kclique_count_exact(g, 5), 6 * choose(7, 5));
  EXPECT_EQ(kclique_count_exact(g, 7), 6u);
  EXPECT_EQ(kclique_count_exact(g, 8), 0u);
}

TEST(KCliqueExact, TriangleFreeGraphsHaveNoCliques) {
  for (unsigned k = 3; k <= 5; ++k) {
    EXPECT_EQ(kclique_count_exact(gen::complete_bipartite(10, 10), k), 0u);
    EXPECT_EQ(kclique_count_exact(gen::cycle(30), k), 0u);
  }
}

TEST(KCliqueProbGraph, RejectsNonBloom) {
  const CsrGraph dag = degree_orient(gen::complete(8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  const ProbGraph pg(dag, cfg);
  EXPECT_THROW((void)kclique_count_probgraph(pg, 4), std::invalid_argument);
}

TEST(KCliqueProbGraph, MatchesTriangleEstimatorAtK3) {
  const CsrGraph dag = degree_orient(gen::kronecker(9, 12.0, 7));
  ProbGraphConfig cfg;
  cfg.bf_bits = 2048;
  cfg.bf_hashes = 2;
  cfg.seed = 5;
  const ProbGraph pg(dag, cfg);
  const double via_kclique = kclique_count_probgraph(pg, 3);
  const double via_tc = triangle_count_probgraph(pg, TcMode::kOriented);
  EXPECT_NEAR(via_kclique, via_tc, std::abs(via_tc) * 1e-9 + 1e-6);
}

class KCliqueSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KCliqueSweep, BloomEstimateTracksExactOnDenseGraph) {
  const unsigned k = GetParam();
  const CsrGraph g = gen::clique_chain(8, 12);  // plenty of k-cliques, k <= 12
  const CsrGraph dag = degree_orient(g);
  const auto exact = static_cast<double>(kclique_count_exact_oriented(dag, k));
  ASSERT_GT(exact, 0.0);
  ProbGraphConfig cfg;
  cfg.bf_bits = 4096;  // generous width: chained ANDs compound FP noise
  cfg.bf_hashes = 2;
  cfg.seed = 3;
  const ProbGraph pg(dag, cfg);
  const double est = kclique_count_probgraph(pg, k);
  EXPECT_NEAR(est / exact, 1.0, 0.35) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, KCliqueSweep, ::testing::Values(3u, 4u, 5u));

TEST(KCliqueProbGraph, BloomEstimatesAreIdenticalAtAnyThreadCount) {
  // kron:12:16 (pgtool's generator seed): far more than one 32-vertex
  // summation block, so an order-dependent sum would show in the low bits.
  const CsrGraph dag = degree_orient(gen::kronecker(12, 16.0, 42));
  ProbGraphConfig cfg;
  cfg.storage_budget = 0.25;
  const ProbGraph pg(dag, cfg);
  for (const unsigned k : {4u, 5u}) {
    double at_one = 0.0, at_four = 0.0;
    {
      const util::ThreadScope one(1);
      at_one = kclique_count_probgraph(pg, k);
    }
    {
      const util::ThreadScope four(4);
      at_four = kclique_count_probgraph(pg, k);
    }
    EXPECT_GT(at_one, 0.0);
    EXPECT_EQ(at_one, at_four) << "k=" << k;
  }
}

}  // namespace
}  // namespace probgraph::algo
