#include "algorithms/clique_count.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "algorithms/kclique.hpp"
#include "core/backends.hpp"
#include "core/estimators.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"
#include "util/threading.hpp"

namespace probgraph::algo {
namespace {

/// O(n⁴) oracle for small graphs.
std::uint64_t brute_force_4cc(const CsrGraph& g) {
  std::uint64_t count = 0;
  const VertexId n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (!g.has_edge(a, c) || !g.has_edge(b, c)) continue;
        for (VertexId d = c + 1; d < n; ++d) {
          if (g.has_edge(a, d) && g.has_edge(b, d) && g.has_edge(c, d)) ++count;
        }
      }
    }
  return count;
}

TEST(FourCliqueExact, ClosedFormOracles) {
  EXPECT_EQ(four_clique_count_exact(gen::complete(6)), 15u);   // C(6,4)
  EXPECT_EQ(four_clique_count_exact(gen::complete(10)), 210u); // C(10,4)
  EXPECT_EQ(four_clique_count_exact(gen::complete(4)), 1u);
  EXPECT_EQ(four_clique_count_exact(gen::complete(3)), 0u);
  EXPECT_EQ(four_clique_count_exact(gen::star(30)), 0u);
  EXPECT_EQ(four_clique_count_exact(gen::complete_bipartite(8, 8)), 0u);
  // 4 disjoint K_5s: 4 · C(5,4) = 20.
  EXPECT_EQ(four_clique_count_exact(gen::clique_chain(4, 5)), 20u);
}

TEST(FourCliqueExact, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const CsrGraph g = gen::erdos_renyi(40, 0.25, seed);
    EXPECT_EQ(four_clique_count_exact(g), brute_force_4cc(g)) << "seed " << seed;
  }
}

TEST(FourCliqueExact, OrientedEntryPointMatches) {
  const CsrGraph g = gen::kronecker(8, 10.0, 3);
  EXPECT_EQ(four_clique_count_exact(g),
            four_clique_count_exact_oriented(degree_orient(g)));
}

TEST(FourCliqueProbGraph, RejectsKmv) {
  const CsrGraph dag = degree_orient(gen::complete(8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kKmv;
  const ProbGraph pg(dag, cfg);
  EXPECT_THROW((void)four_clique_count_probgraph(pg), std::invalid_argument);
}

TEST(FourCliqueProbGraph, BloomTracksExactOnDenseGraph) {
  const CsrGraph g = gen::kronecker(10, 24.0, 5);
  const auto exact = static_cast<double>(four_clique_count_exact(g));
  ASSERT_GT(exact, 0.0);
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.storage_budget = 0.33;
  cfg.budget_reference_bytes = g.memory_bytes();
  cfg.bf_hashes = 1;
  cfg.seed = 11;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  // 4CC compounds three approximations (C3 membership, chained AND, and the
  // w-loop), so the band is wide; Fig. 5 similarly scatters up to ~1.5×.
  EXPECT_NEAR(est / exact, 1.0, 1.0);
}

TEST(FourCliqueProbGraph, OneHashIsFiniteAndPositiveOnCliques) {
  const CsrGraph dag = degree_orient(gen::clique_chain(6, 8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 16;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  EXPECT_GT(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(FourCliqueProbGraph, SaturatedOneHashIsNearExact) {
  // k larger than every out-degree: sketches hold whole neighborhoods.
  const CsrGraph g = gen::complete(16);
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 32;
  const ProbGraph pg(dag, cfg);
  EXPECT_NEAR(four_clique_count_probgraph(pg), 1820.0, 1820.0 * 0.05);  // C(16,4)
}

TEST(FourCliqueProbGraph, KHashRunsOnRandomGraph) {
  const CsrGraph dag = degree_orient(gen::kronecker(9, 10.0, 9));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kKHash;
  cfg.minhash_k = 16;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  EXPECT_GE(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(FourCliqueProbGraph, ZeroOnTriangleFreeGraphs) {
  const CsrGraph dag = degree_orient(gen::cycle(64));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 8;
  const ProbGraph pg(dag, cfg);
  EXPECT_DOUBLE_EQ(four_clique_count_probgraph(pg), 0.0);
}

// --- The BF candidate filters against the hash-per-probe loops they replaced. ---

/// Reference copy of the BF 4-clique loop with one BloomFilterView::contains
/// per C3 probe (b hashes, b divisions, a branch) and one and3 popcount per
/// w, summed in the fixed blocks of 32 u-vertices that
/// four_clique_count_probgraph sums in.
double four_clique_bf_reference(const ProbGraph& pg) {
  const CsrGraph& dag = pg.graph();
  const BloomAndBackend be = pg.backend<BloomAndBackend>();
  const VertexId n = dag.num_vertices();
  double total = 0.0;
  std::vector<VertexId> c3;
  for (VertexId block = 0; block < n; block += 32) {
    double acc = 0.0;
    for (VertexId u = block; u < std::min<VertexId>(n, block + 32); ++u) {
      const BloomFilterView bf_u = be.bf(u);
      for (const VertexId v : dag.neighbors(u)) {
        c3.clear();
        for (const VertexId x : dag.neighbors(v)) {
          if (bf_u.contains(x)) c3.push_back(x);
        }
        for (const VertexId w : c3) {
          const std::uint64_t ones = kernels::scalar::and3_popcount(
              be.words(u).data(), be.words(v).data(), be.words(w).data(), be.words_per_vertex);
          acc += est::bf_intersection_and(ones, be.bits, be.hashes);
        }
      }
    }
    total += acc;
  }
  return total;
}

/// Reference copy of kclique's BF recursion with one contains per probe.
double kclique_bf_reference_rec(const BloomAndBackend& be, const std::vector<VertexId>& cand,
                                const std::vector<std::uint64_t>& and_words,
                                unsigned remaining) {
  if (remaining == 0) {
    return est::bf_intersection_and(util::popcount(and_words), be.bits, be.hashes);
  }
  double total = 0.0;
  for (const VertexId u : cand) {
    std::vector<std::uint64_t> next_words = and_words;
    const auto wu = be.words(u);
    for (std::size_t i = 0; i < next_words.size(); ++i) next_words[i] &= wu[i];
    const BloomFilterView chain(next_words, be.bits, be.hashes, be.family);
    std::vector<VertexId> next_cand;
    for (const VertexId x : cand) {
      if (x != u && chain.contains(x)) next_cand.push_back(x);
    }
    if (next_cand.empty() && remaining > 1) continue;
    total += kclique_bf_reference_rec(be, next_cand, next_words, remaining - 1);
  }
  return total;
}

/// Summed in the fixed blocks of 32 v-vertices that
/// kclique_count_probgraph sums in.
double kclique_bf_reference(const ProbGraph& pg, unsigned k) {
  const CsrGraph& dag = pg.graph();
  const BloomAndBackend be = pg.backend<BloomAndBackend>();
  const VertexId n = dag.num_vertices();
  double total = 0.0;
  for (VertexId block = 0; block < n; block += 32) {
    double acc = 0.0;
    for (VertexId v = block; v < std::min<VertexId>(n, block + 32); ++v) {
      const auto nv = dag.neighbors(v);
      if (nv.empty()) continue;
      const auto wv = be.words(v);
      acc += kclique_bf_reference_rec(be, {nv.begin(), nv.end()}, {wv.begin(), wv.end()},
                                      k - 2);
    }
    total += acc;
  }
  return total;
}

TEST(FourCliqueProbGraph, BloomMatchesTheHashPerProbeLoopBitForBit) {
  const util::ThreadScope one(1);
  const CsrGraph dag = degree_orient(gen::kronecker(11, 16.0, 42));
  for (const std::uint32_t b : {1u, 2u, 4u}) {
    for (const double budget : {0.1, 0.33}) {
      ProbGraphConfig cfg;
      cfg.storage_budget = budget;
      cfg.bf_hashes = b;
      cfg.seed = 5;
      const ProbGraph pg(dag, cfg);
      const double est = four_clique_count_probgraph(pg);
      EXPECT_GT(est, 0.0);
      EXPECT_EQ(est, four_clique_bf_reference(pg)) << "b=" << b << " budget=" << budget;
    }
  }
}

TEST(FourCliqueProbGraph, KCliqueBloomMatchesTheHashPerProbeLoopBitForBit) {
  const util::ThreadScope one(1);
  const CsrGraph dag = degree_orient(gen::kronecker(10, 16.0, 42));
  for (const std::uint32_t b : {1u, 2u, 4u}) {
    ProbGraphConfig cfg;
    cfg.storage_budget = 0.25;
    cfg.bf_hashes = b;
    cfg.seed = 5;
    const ProbGraph pg(dag, cfg);
    for (const unsigned k : {3u, 4u, 5u}) {
      const double est = kclique_count_probgraph(pg, k);
      EXPECT_GT(est, 0.0);
      EXPECT_EQ(est, kclique_bf_reference(pg, k)) << "b=" << b << " k=" << k;
    }
  }
}

TEST(FourCliqueProbGraph, SketchEstimatesAreIdenticalAtAnyThreadCount) {
  // kron:12:16 (pgtool's generator seed): far more than one 32-vertex
  // summation block, so an order-dependent sum would show in the low bits.
  const CsrGraph dag = degree_orient(gen::kronecker(12, 16.0, 42));
  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash}) {
    ProbGraphConfig cfg;
    cfg.kind = kind;
    cfg.storage_budget = 0.25;
    cfg.minhash_k = kind == SketchKind::kKHash ? 64 : 0;  // enough slots to sample C3
    const ProbGraph pg(dag, cfg);
    double at_one = 0.0, at_four = 0.0;
    {
      const util::ThreadScope one(1);
      at_one = four_clique_count_probgraph(pg);
    }
    {
      const util::ThreadScope four(4);
      at_four = four_clique_count_probgraph(pg);
    }
    EXPECT_GT(at_one, 0.0);
    EXPECT_EQ(at_one, at_four) << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace probgraph::algo
