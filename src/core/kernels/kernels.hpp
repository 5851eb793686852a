// SISA-style set-operation kernel layer: the vectorized hot core under
// every ProbGraph estimator.
//
// Every estimator and every exact baseline bottoms out in a handful of
// set-centric primitives — SISA's operation taxonomy (intersection /
// membership / cardinality) made concrete for our three representations:
//
//   sorted CSR neighborhoods   intersect_count / intersect_into
//   Bloom-filter bit vectors   and_popcount / or_popcount / and3_popcount
//   MinHash / KMV k-entry rows match_count_u64 / min_merge
//
// plus *batched* variants (`*_batch`) that evaluate one base operand
// against many candidates in a cache-blocked sweep — the shape presented
// by batched PairEstimate, LinkPredict top-k, and the per-vertex neighbor
// loops of the clique kernels, where the base row stays pinned in L1
// while candidates stream.
//
// Dispatch: implementations exist at several SIMD levels — portable
// scalar (this header, `kernels::scalar`), AVX2, AVX512 (popcount family
// via VPOPCNTDQ), and NEON — compiled into separate TUs with per-file
// ISA flags (see CMake option PROBGRAPH_SIMD) and selected ONCE at
// startup from cpuid. The environment variable PROBGRAPH_KERNELS
// (scalar|avx2|avx512|neon|auto) caps the level at runtime, so any
// binary can be forced onto the portable path for debugging or A/B
// measurement without a rebuild.
//
// Bit-identity contract: all dispatched kernels are integer kernels —
// counts of matches or of set bits — so every SIMD level returns results
// bit-identical to scalar. Floating-point kernels (min_merge, used by the
// KMV union merge) are deliberately NOT vectorized: their comparison
// order is part of the estimator definition, and the golden fixtures pin
// it. The dispatch indirection costs one predicted indirect call per
// kernel invocation, the same price as the previous out-of-line calls in
// util/bitvector.cpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

// Optional per-kernel observability (PROBGRAPH_OBS, default ON): each
// dispatched wrapper below tallies one invocation plus its input size
// into the lock-free sharded counters of obs/kernel_metrics.hpp, scraped
// by the metrics registry. With PROBGRAPH_OBS=OFF the macros expand to
// nothing and the wrappers compile exactly as before — zero cost, not
// just a cheap branch. The macro is PUBLIC in CMake so every TU agrees
// on the inline wrappers' bodies (ODR).
#if defined(PROBGRAPH_OBS) && PROBGRAPH_OBS
#include "obs/kernel_metrics.hpp"
#define PROBGRAPH_OBS_KERNEL(op, elems) \
  ::probgraph::obs::record_kernel(::probgraph::obs::KernelOp::op, (elems))
#define PROBGRAPH_OBS_KERNEL_BATCH(op, calls, elems)                         \
  ::probgraph::obs::record_kernel_batch(::probgraph::obs::KernelOp::op,      \
                                        (calls), (elems))
#else
#define PROBGRAPH_OBS_KERNEL(op, elems) ((void)0)
#define PROBGRAPH_OBS_KERNEL_BATCH(op, calls, elems) ((void)0)
#endif

namespace probgraph::kernels {

/// SIMD level of a kernel implementation set, in increasing capability
/// order on each architecture. Levels above kScalar exist only when the
/// build compiled them (PROBGRAPH_SIMD=ON + compiler support) AND the
/// running CPU reports the feature.
enum class Level : std::uint8_t { kScalar = 0, kNeon, kAvx2, kAvx512 };

/// The level resolved at startup (cpuid ∧ compiled-in ∧ PROBGRAPH_KERNELS
/// cap). Stable for the lifetime of the process.
[[nodiscard]] Level active_level() noexcept;

/// Human-readable name ("scalar", "avx2", ...), for logs and benches.
[[nodiscard]] const char* level_name(Level level) noexcept;

// ---------------------------------------------------------------------------
// Portable scalar reference implementations. These are the tuned GMS/GAP-
// style baselines (moved verbatim from core/intersect.hpp and
// util/bitvector.cpp); every SIMD level must match them bit for bit, and
// the differential tests in tests/test_kernels.cpp enforce it.
// ---------------------------------------------------------------------------

namespace scalar {

/// Merge-based |X ∩ Y| over sorted duplicate-free spans: O(|X| + |Y|).
[[nodiscard]] inline std::uint64_t intersect_count_merge(
    std::span<const VertexId> x, std::span<const VertexId> y) noexcept {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] < y[j]) {
      ++i;
    } else if (y[j] < x[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Galloping (exponential + binary search) |X ∩ Y|: O(|X| log |Y|); `x`
/// should be the smaller span (swapped internally if not).
[[nodiscard]] inline std::uint64_t intersect_count_gallop(
    std::span<const VertexId> x, std::span<const VertexId> y) noexcept {
  if (x.size() > y.size()) return intersect_count_gallop(y, x);
  std::uint64_t count = 0;
  std::size_t lo = 0;
  for (const VertexId v : x) {
    // Exponential probe from the last found position.
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < y.size() && y[hi] < v) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi, y.size());
    const auto it = std::lower_bound(y.begin() + static_cast<std::ptrdiff_t>(lo),
                                     y.begin() + static_cast<std::ptrdiff_t>(hi), v);
    lo = static_cast<std::size_t>(it - y.begin());
    if (lo < y.size() && y[lo] == v) {
      ++count;
      ++lo;
    }
  }
  return count;
}

/// Materializing merge intersection: appends X ∩ Y (ascending) to `out`.
inline void intersect_into_merge(std::span<const VertexId> x, std::span<const VertexId> y,
                                 std::vector<VertexId>& out) {
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] < y[j]) {
      ++i;
    } else if (y[j] < x[i]) {
      ++j;
    } else {
      out.push_back(x[i]);
      ++i;
      ++j;
    }
  }
}

/// Materializing galloping intersection; `x` should be the smaller span
/// (swapped internally if not — the output is the same ascending X ∩ Y
/// either way).
inline void intersect_into_gallop(std::span<const VertexId> x, std::span<const VertexId> y,
                                  std::vector<VertexId>& out) {
  if (x.size() > y.size()) return intersect_into_gallop(y, x, out);
  std::size_t lo = 0;
  for (const VertexId v : x) {
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < y.size() && y[hi] < v) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi, y.size());
    const auto it = std::lower_bound(y.begin() + static_cast<std::ptrdiff_t>(lo),
                                     y.begin() + static_cast<std::ptrdiff_t>(hi), v);
    lo = static_cast<std::size_t>(it - y.begin());
    if (lo < y.size() && y[lo] == v) {
      out.push_back(v);
      ++lo;
    }
  }
}

/// Popcount of the bitwise AND of two equal-length word spans, 4-way
/// unrolled to keep independent popcnt chains in flight.
[[nodiscard]] inline std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                                std::size_t n) noexcept {
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    c1 += static_cast<std::uint64_t>(std::popcount(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::uint64_t>(std::popcount(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::uint64_t>(std::popcount(a[i + 3] & b[i + 3]));
  }
  for (; i < n; ++i) c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return c0 + c1 + c2 + c3;
}

/// Popcount of the bitwise OR of two equal-length word spans.
[[nodiscard]] inline std::uint64_t or_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                               std::size_t n) noexcept {
  std::uint64_t c0 = 0, c1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
    c1 += static_cast<std::uint64_t>(std::popcount(a[i + 1] | b[i + 1]));
  }
  for (; i < n; ++i) c0 += static_cast<std::uint64_t>(std::popcount(a[i] | b[i]));
  return c0 + c1;
}

/// Popcount of the three-way AND (the chained BF 4-clique statistic).
[[nodiscard]] inline std::uint64_t and3_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                                 const std::uint64_t* c,
                                                 std::size_t n) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::uint64_t>(std::popcount(a[i] & b[i] & c[i]));
  }
  return acc;
}

/// Plain popcount over a word span.
[[nodiscard]] inline std::uint64_t popcount(const std::uint64_t* w, std::size_t n) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<std::uint64_t>(std::popcount(w[i]));
  return acc;
}

/// #slot-wise matches between two u64 rows, skipping `empty` slots in `a`
/// — the k-hash MinHash |M_X ∩ M_Y| scan (Eq. (5)); compares the common
/// prefix of the two rows.
[[nodiscard]] inline std::uint32_t match_count_u64(const std::uint64_t* a,
                                                   const std::uint64_t* b, std::size_t n,
                                                   std::uint64_t empty) noexcept {
  std::uint32_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    matches += (a[i] != empty && a[i] == b[i]) ? 1U : 0U;
  }
  return matches;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points: resolved to the active level's implementation
// through a function table filled once at startup. Use these on hot paths.
// ---------------------------------------------------------------------------

namespace detail {

struct KernelTable {
  std::uint64_t (*intersect_count_merge)(const VertexId*, std::size_t, const VertexId*,
                                         std::size_t) noexcept;
  std::uint64_t (*intersect_count_gallop)(const VertexId*, std::size_t, const VertexId*,
                                          std::size_t) noexcept;
  void (*intersect_into_merge)(const VertexId*, std::size_t, const VertexId*, std::size_t,
                               std::vector<VertexId>&);
  void (*intersect_into_gallop)(const VertexId*, std::size_t, const VertexId*, std::size_t,
                                std::vector<VertexId>&);
  std::uint64_t (*and_popcount)(const std::uint64_t*, const std::uint64_t*,
                                std::size_t) noexcept;
  std::uint64_t (*or_popcount)(const std::uint64_t*, const std::uint64_t*,
                               std::size_t) noexcept;
  std::uint64_t (*and3_popcount)(const std::uint64_t*, const std::uint64_t*,
                                 const std::uint64_t*, std::size_t) noexcept;
  std::uint64_t (*popcount)(const std::uint64_t*, std::size_t) noexcept;
  std::uint32_t (*match_count_u64)(const std::uint64_t*, const std::uint64_t*, std::size_t,
                                   std::uint64_t) noexcept;
};

/// The table for the active level (initialized on first use, before main's
/// first query; thread-safe via static-local init).
[[nodiscard]] const KernelTable& table() noexcept;

}  // namespace detail

/// The size-ratio crossover between merge and galloping: galloping wins
/// once |Y| >> |X| log |X|; 32 is the usual GMS/GAP rule of thumb.
inline constexpr std::size_t kGallopCrossover = 32;

[[nodiscard]] inline bool prefer_gallop(std::size_t nx, std::size_t ny) noexcept {
  const std::size_t small = std::min(nx, ny);
  const std::size_t large = std::max(nx, ny);
  return small != 0 && large / small >= kGallopCrossover;
}

/// |X ∩ Y| over sorted duplicate-free spans, merge variant.
[[nodiscard]] inline std::uint64_t intersect_count_merge(std::span<const VertexId> x,
                                                         std::span<const VertexId> y) noexcept {
  PROBGRAPH_OBS_KERNEL(kIntersectCountMerge, x.size() + y.size());
  return detail::table().intersect_count_merge(x.data(), x.size(), y.data(), y.size());
}

/// |X ∩ Y|, galloping variant.
[[nodiscard]] inline std::uint64_t intersect_count_gallop(std::span<const VertexId> x,
                                                          std::span<const VertexId> y) noexcept {
  PROBGRAPH_OBS_KERNEL(kIntersectCountGallop, x.size() + y.size());
  return detail::table().intersect_count_gallop(x.data(), x.size(), y.data(), y.size());
}

/// |X ∩ Y| with the standard size-ratio dispatch between merge and
/// galloping (SISA "intersection → cardinality").
[[nodiscard]] inline std::uint64_t intersect_count(std::span<const VertexId> x,
                                                   std::span<const VertexId> y) noexcept {
  if (x.empty() || y.empty()) return 0;
  return prefer_gallop(x.size(), y.size()) ? intersect_count_gallop(x, y)
                                           : intersect_count_merge(x, y);
}

/// Materializing X ∩ Y (appended to `out`, ascending), with the same
/// size-ratio heuristic as `intersect_count` — skewed pairs gallop instead
/// of paying the O(|X| + |Y|) merge.
inline void intersect_into(std::span<const VertexId> x, std::span<const VertexId> y,
                           std::vector<VertexId>& out) {
  if (x.empty() || y.empty()) return;
  if (prefer_gallop(x.size(), y.size())) {
    PROBGRAPH_OBS_KERNEL(kIntersectIntoGallop, x.size() + y.size());
    detail::table().intersect_into_gallop(x.data(), x.size(), y.data(), y.size(), out);
  } else {
    PROBGRAPH_OBS_KERNEL(kIntersectIntoMerge, x.size() + y.size());
    detail::table().intersect_into_merge(x.data(), x.size(), y.data(), y.size(), out);
  }
}

/// popcount(A AND B) over equal-length word spans (SISA "intersection +
/// cardinality" on the bit-vector representation).
[[nodiscard]] inline std::uint64_t and_popcount(std::span<const std::uint64_t> a,
                                                std::span<const std::uint64_t> b) noexcept {
  PROBGRAPH_OBS_KERNEL(kAndPopcount, std::min(a.size(), b.size()));
  return detail::table().and_popcount(a.data(), b.data(), std::min(a.size(), b.size()));
}

/// popcount(A OR B) over equal-length word spans.
[[nodiscard]] inline std::uint64_t or_popcount(std::span<const std::uint64_t> a,
                                               std::span<const std::uint64_t> b) noexcept {
  PROBGRAPH_OBS_KERNEL(kOrPopcount, std::min(a.size(), b.size()));
  return detail::table().or_popcount(a.data(), b.data(), std::min(a.size(), b.size()));
}

/// popcount(A AND B AND C).
[[nodiscard]] inline std::uint64_t and3_popcount(std::span<const std::uint64_t> a,
                                                 std::span<const std::uint64_t> b,
                                                 std::span<const std::uint64_t> c) noexcept {
  PROBGRAPH_OBS_KERNEL(kAnd3Popcount, std::min({a.size(), b.size(), c.size()}));
  return detail::table().and3_popcount(a.data(), b.data(), c.data(),
                                       std::min({a.size(), b.size(), c.size()}));
}

/// popcount(A).
[[nodiscard]] inline std::uint64_t popcount(std::span<const std::uint64_t> w) noexcept {
  PROBGRAPH_OBS_KERNEL(kPopcount, w.size());
  return detail::table().popcount(w.data(), w.size());
}

/// Slot-wise match count between two equal-k u64 signature rows, skipping
/// `empty` slots.
[[nodiscard]] inline std::uint32_t match_count_u64(std::span<const std::uint64_t> a,
                                                   std::span<const std::uint64_t> b,
                                                   std::uint64_t empty) noexcept {
  PROBGRAPH_OBS_KERNEL(kMatchCountU64, std::min(a.size(), b.size()));
  return detail::table().match_count_u64(a.data(), b.data(), std::min(a.size(), b.size()),
                                         empty);
}

// ---------------------------------------------------------------------------
// Batched entry points: one base operand against many candidate rows of a
// per-vertex arena. The base row is loaded once and stays cache-hot while
// the candidate rows stream — the memory shape of batched PairEstimate,
// LinkPredict top-k, and the clique per-vertex loops. The per-candidate
// kernel is resolved ONCE per batch (no per-element dispatch).
// ---------------------------------------------------------------------------

/// out[i] = popcount(base AND arena[cands[i]]) for each candidate row,
/// where row v starts at arena + v * words_per_vertex and spans
/// `base.size()` words.
inline void and_popcount_batch(std::span<const std::uint64_t> base,
                               const std::uint64_t* arena, std::size_t words_per_vertex,
                               std::span<const VertexId> cands,
                               std::uint64_t* out) noexcept {
  PROBGRAPH_OBS_KERNEL_BATCH(kAndPopcount, cands.size(), base.size() * cands.size());
  const auto fn = detail::table().and_popcount;
  const std::uint64_t* bw = base.data();
  const std::size_t n = base.size();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    out[i] = fn(bw, arena + static_cast<std::size_t>(cands[i]) * words_per_vertex, n);
  }
}

/// out[i] = popcount(base OR arena[cands[i]]).
inline void or_popcount_batch(std::span<const std::uint64_t> base, const std::uint64_t* arena,
                              std::size_t words_per_vertex, std::span<const VertexId> cands,
                              std::uint64_t* out) noexcept {
  PROBGRAPH_OBS_KERNEL_BATCH(kOrPopcount, cands.size(), base.size() * cands.size());
  const auto fn = detail::table().or_popcount;
  const std::uint64_t* bw = base.data();
  const std::size_t n = base.size();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    out[i] = fn(bw, arena + static_cast<std::size_t>(cands[i]) * words_per_vertex, n);
  }
}

// ---------------------------------------------------------------------------
// MinHash/KMV k-entry scan kernels that stay scalar by contract (their
// comparison order over doubles is part of the estimator definition).
// ---------------------------------------------------------------------------

/// Result of the KMV bottom-k union merge: how many union values were
/// taken (< k iff both inputs exhausted early) and the k-th smallest union
/// value (the last taken).
struct MinMergeResult {
  std::uint32_t taken = 0;
  double kth = 0.0;
};

/// Monotone min-merge of two ascending double rows, stopping after the k
/// smallest distinct union values — the KMV |X ∪ Y| statistic of Eq. (41).
/// Equal values (same hash in both sketches) are consumed from both sides
/// but counted once.
[[nodiscard]] inline MinMergeResult min_merge(std::span<const double> a,
                                              std::span<const double> b,
                                              std::uint32_t k) noexcept {
  PROBGRAPH_OBS_KERNEL(kMinMerge, a.size() + b.size());
  MinMergeResult r;
  std::size_t i = 0, j = 0;
  while (r.taken < k && (i < a.size() || j < b.size())) {
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      r.kth = a[i++];
    } else if (i < a.size() && a[i] == b[j]) {
      r.kth = a[i++];
      ++j;
    } else {
      r.kth = b[j++];
    }
    ++r.taken;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Bloom membership compaction: the candidate filter of the BF clique
// kernels (C3 = N+v filtered by BF(N+u), and kclique's chained refinement).
// Scalar by contract, like galloping: the loop is bound by the dependent
// loads of a probe row and its filter words, not by arithmetic. It has no
// dispatch-table entry; a per-level (gather + compress) variant earns one
// only by measuring faster than this loop in bench/table4.
// ---------------------------------------------------------------------------

/// Writes to `out`, in input order, every candidate x whose b probe
/// positions are all set in `words`, and returns how many it wrote. Row x
/// of `probes` holds x's b bit positions h_i(x) mod B (a BloomProbeTable,
/// core/bloom_filter.hpp), so a probe is b loads and ANDs — no hash, no
/// division, no data-dependent branch. Same answer as
/// BloomFilterView::contains for every candidate. `out` needs room for
/// cands.size() entries.
inline std::size_t bloom_member_compact(const std::uint64_t* words,
                                        const std::uint32_t* probes, std::uint32_t b,
                                        std::span<const VertexId> cands,
                                        VertexId* out) noexcept {
  PROBGRAPH_OBS_KERNEL_BATCH(kBloomMemberCompact, 1, cands.size());
  // PROBGRAPH_HOT_PATH_BEGIN(bloom-member-compact)
  std::size_t kept = 0;
  for (const VertexId x : cands) {
    const std::uint32_t* pos = probes + static_cast<std::size_t>(x) * b;
    std::uint64_t hit = 1;
    for (std::uint32_t i = 0; i < b; ++i) hit &= words[pos[i] >> 6] >> (pos[i] & 63);
    out[kept] = x;  // always stored; the cursor moves past members only
    kept += hit;
  }
  return kept;
  // PROBGRAPH_HOT_PATH_END(bloom-member-compact)
}

}  // namespace probgraph::kernels
