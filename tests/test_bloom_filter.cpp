#include "core/bloom_filter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/backends.hpp"
#include "graph/generators.hpp"
#include "obs/kernel_metrics.hpp"
#include "util/rng.hpp"

namespace probgraph {
namespace {

TEST(BloomFilter, RejectsDegenerateParameters) {
  EXPECT_THROW(BloomFilter(0, 1), std::invalid_argument);
  EXPECT_THROW(BloomFilter(64, 0), std::invalid_argument);
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1024, 3, 7);
  std::vector<VertexId> elements;
  for (VertexId x = 0; x < 100; ++x) elements.push_back(x * 13 + 1);
  bf.insert(elements);
  for (const VertexId x : elements) {
    EXPECT_TRUE(bf.contains(x)) << x;
  }
}

TEST(BloomFilter, EmptyFilterContainsNothing) {
  const BloomFilter bf(256, 2);
  EXPECT_EQ(bf.count_ones(), 0u);
  for (VertexId x = 0; x < 100; ++x) EXPECT_FALSE(bf.contains(x));
  EXPECT_DOUBLE_EQ(bf.false_positive_rate(), 0.0);
}

TEST(BloomFilter, OnesCountBoundedByInsertions) {
  BloomFilter bf(4096, 4, 3);
  for (VertexId x = 0; x < 50; ++x) bf.insert(x);
  EXPECT_LE(bf.count_ones(), 50u * 4u);  // at most b bits per element
  EXPECT_GT(bf.count_ones(), 0u);
}

TEST(BloomFilter, FalsePositiveRateTracksTheoryOnSparseFilter) {
  // Insert few elements into a large filter: the empirical FP rate over a
  // probe set must be near (fill)^b and small.
  BloomFilter bf(1 << 14, 2, 11);
  for (VertexId x = 0; x < 200; ++x) bf.insert(x);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    const VertexId probe = static_cast<VertexId>(1000000 + i);  // disjoint from inserts
    if (bf.contains(probe)) ++fp;
  }
  const double empirical = static_cast<double>(fp) / probes;
  const double predicted = bf.false_positive_rate();
  EXPECT_LT(empirical, 0.01);
  EXPECT_NEAR(empirical, predicted, 0.005);
}

TEST(BloomFilter, AndOnesCountsSharedStructure) {
  BloomFilter x(2048, 2, 5), y(2048, 2, 5);
  for (VertexId e = 0; e < 64; ++e) x.insert(e);
  for (VertexId e = 32; e < 96; ++e) y.insert(e);
  // Identical seeds: shared elements set identical bits, so the AND carries
  // at least the bits of the 32 common elements (minus collisions).
  const std::uint64_t and_ones = x.view().and_ones(y.view());
  EXPECT_GT(and_ones, 0u);
  EXPECT_LE(and_ones, std::min(x.count_ones(), y.count_ones()));
}

TEST(BloomFilter, OrOnesIsAtLeastMaxSide) {
  BloomFilter x(512, 1, 5), y(512, 1, 5);
  for (VertexId e = 0; e < 20; ++e) x.insert(e);
  for (VertexId e = 50; e < 90; ++e) y.insert(e);
  EXPECT_GE(x.view().or_ones(y.view()), std::max(x.count_ones(), y.count_ones()));
}

TEST(BloomFilter, DisjointSetsShareFewBits) {
  BloomFilter x(1 << 13, 1, 9), y(1 << 13, 1, 9);
  for (VertexId e = 0; e < 100; ++e) x.insert(e);
  for (VertexId e = 100000; e < 100100; ++e) y.insert(e);
  // AND of filters of disjoint sets: only hash collisions.
  EXPECT_LT(x.view().and_ones(y.view()), 15u);
}

TEST(BloomFilter, ViewMatchesOwner) {
  BloomFilter bf(512, 3, 21);
  for (VertexId e = 0; e < 30; ++e) bf.insert(e * 7);
  const BloomFilterView view = bf.view();
  EXPECT_EQ(view.size_bits(), bf.size_bits());
  EXPECT_EQ(view.num_hashes(), bf.num_hashes());
  EXPECT_EQ(view.count_ones(), bf.count_ones());
  for (VertexId e = 0; e < 30; ++e) EXPECT_TRUE(view.contains(e * 7));
}

TEST(BloomFilter, DifferentSeedsProduceDifferentLayouts) {
  BloomFilter a(512, 2, 1), b(512, 2, 2);
  for (VertexId e = 0; e < 40; ++e) {
    a.insert(e);
    b.insert(e);
  }
  EXPECT_NE(a.bits(), b.bits());
}

// Property sweep over b: saturation grows with more hash functions, and
// membership of inserted elements always holds.
class BloomHashSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BloomHashSweep, InsertContainsInvariant) {
  const std::uint32_t b = GetParam();
  BloomFilter bf(2048, b, 31);
  util::Xoshiro256 rng(b);
  std::vector<VertexId> elements;
  for (int i = 0; i < 150; ++i) elements.push_back(static_cast<VertexId>(rng.bounded(1 << 20)));
  bf.insert(elements);
  for (const VertexId x : elements) EXPECT_TRUE(bf.contains(x));
  EXPECT_LE(bf.count_ones(), static_cast<std::uint64_t>(150) * b);
}

INSTANTIATE_TEST_SUITE_P(HashCounts, BloomHashSweep, ::testing::Values(1, 2, 3, 4, 8));

// --- BloomProbeTable: the batched membership filter of the clique kernels. ---

/// The candidates of `cands` that `view.contains`, in order — what the
/// probe table's compaction must reproduce exactly.
std::vector<VertexId> contains_filter(const BloomFilterView& view,
                                      const std::vector<VertexId>& cands) {
  std::vector<VertexId> kept;
  for (const VertexId x : cands) {
    if (view.contains(x)) kept.push_back(x);
  }
  return kept;
}

std::vector<VertexId> table_filter(const BloomProbeTable& table, const BloomFilterView& view,
                                   const std::vector<VertexId>& cands) {
  std::vector<VertexId> out(cands.size());
  out.resize(table.filter(view.words(), cands, out.data()));
  return out;
}

TEST(BloomProbeTable, MatchesContainsOnRandomFilters) {
  // Widths: one word, three words, a width that is not a multiple of 64
  // and the ProbGraph rounding of it (1000 -> 960), and a wide filter;
  // b = 3 takes the run-time-b path of the kernel.
  constexpr VertexId kIds = 5000;
  for (const std::uint64_t bits : {64u, 192u, 960u, 1000u, 4096u}) {
    for (const std::uint32_t b : {1u, 2u, 3u, 4u}) {
      const std::uint64_t seed = bits * 31 + b;
      const BloomProbeTable table(kIds, bits, b, util::HashFamily(seed));
      util::Xoshiro256 rng(seed);
      for (int trial = 0; trial < 8; ++trial) {
        BloomFilter bf(bits, b, seed);
        const auto inserts = rng.bounded(bits / 2 + 1);
        for (std::uint64_t i = 0; i < inserts; ++i) {
          bf.insert(static_cast<VertexId>(rng.bounded(kIds)));
        }
        std::vector<VertexId> cands(1 + rng.bounded(700));
        for (VertexId& x : cands) x = static_cast<VertexId>(rng.bounded(kIds));
        const std::vector<VertexId> expected = contains_filter(bf.view(), cands);
        EXPECT_EQ(table_filter(table, bf.view(), cands), expected)
            << "bits=" << bits << " b=" << b << " trial=" << trial;
      }
    }
  }
}

TEST(BloomProbeTable, MatchesContainsOnProbGraphFilters) {
  // The probe table of a substrate (the one the clique kernels build)
  // answers for every one of its filters.
  const CsrGraph g = gen::kronecker(9, 8.0, 4);
  ProbGraphConfig cfg;
  cfg.bf_bits = 1000;  // rounded down to 960 by the ProbGraph
  cfg.bf_hashes = 2;
  const ProbGraph pg(g, cfg);
  ASSERT_EQ(pg.bf_bits(), 960u);
  const BloomProbeTable table = pg.backend<BloomAndBackend>().probe_table();
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId x = 0; x < g.num_vertices(); ++x) all[x] = x;
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_EQ(table_filter(table, pg.bf(v), all), contains_filter(pg.bf(v), all)) << v;
  }
}

TEST(BloomProbeTable, RejectsWidthsItCannotIndex) {
  const util::HashFamily family(1);
  EXPECT_THROW(BloomProbeTable(4, 0, 1, family), std::invalid_argument);
  EXPECT_THROW(BloomProbeTable(4, 64, 0, family), std::invalid_argument);
  EXPECT_THROW(BloomProbeTable(0, (std::uint64_t{1} << 32) + 64, 1, family),
               std::invalid_argument);
  EXPECT_NO_THROW(BloomProbeTable(0, std::uint64_t{1} << 32, 1, family));
}

TEST(BloomProbeTable, CompactionTalliesOneCallAndEveryProbe) {
  const std::size_t op = static_cast<std::size_t>(obs::KernelOp::kBloomMemberCompact);
  const std::uint64_t calls_before = obs::g_kernel_counters.invocations[op].value();
  const std::uint64_t probes_before = obs::g_kernel_counters.elements[op].value();
  BloomFilter bf(256, 2, 9);
  bf.insert(3);
  const BloomProbeTable table(16, 256, 2, util::HashFamily(9));
  const std::vector<VertexId> cands = {1, 3, 5, 7, 9};
  EXPECT_EQ(table_filter(table, bf.view(), cands), contains_filter(bf.view(), cands));
  const std::uint64_t calls = obs::g_kernel_counters.invocations[op].value() - calls_before;
  const std::uint64_t probes = obs::g_kernel_counters.elements[op].value() - probes_before;
#if defined(PROBGRAPH_OBS) && PROBGRAPH_OBS
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(probes, cands.size());
#else
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(probes, 0u);
#endif
}

}  // namespace
}  // namespace probgraph
