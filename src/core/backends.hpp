// Static-dispatch sketch backends: the estimator hot path of every mining
// algorithm, specialized once per (SketchKind × BfEstimator) combination.
//
// ProbGraph::est_intersection used to re-run a nested switch on the sketch
// kind and BF estimator for *every edge* inside every algorithm's parallel
// loop. The backends below hoist that dispatch out of the inner loops: each
// backend is a lightweight POD view over the ProbGraph arenas exposing a
// branch-free `est_intersection(u, v)`, and `ProbGraph::visit_backend(f)`
// performs the kind/estimator switch exactly once before invoking `f` with
// the concrete backend type. Algorithm kernels are templates instantiated
// per backend, so the compiler sees a monomorphic call chain (and can
// inline the popcount/merge kernels) where the old code saw an opaque
// double switch.
//
// The derived measures (Jaccard, overlap, total neighbors) live in the CRTP
// base so every backend shares one definition, and the estimate clamping
// that used to be scattered ad hoc through the call sites (e.g. the
// std::min(est, du + dv) inside est_jaccard) is centralized here in
// `est_intersection_clamped`.
//
// Backends are cheap to copy (a few pointers and scalars); capture them by
// value inside parallel regions.
//
// The arena pointers are memory-source agnostic: they may point into heap
// arenas owned by the ProbGraph or straight into an mmap'ed .pgs snapshot
// (util::ArenaRef / src/io/snapshot.hpp), so every algorithm kernel serves
// zero-copy from either source without change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/bloom_filter.hpp"
#include "core/estimators.hpp"
#include "core/kernels/kernels.hpp"
#include "core/minhash.hpp"
#include "core/prob_graph.hpp"
#include "graph/csr_graph.hpp"
#include "util/bitvector.hpp"
#include "util/hash.hpp"

namespace probgraph {

/// CRTP base: derived similarity measures shared by every backend, defined
/// over the backend's raw `est_intersection`.
template <typename Derived>
struct SketchBackendBase {
  /// True when est_jaccard is the direct sketch estimate rather than a
  /// function of est_intersection; batch consumers must then score Jaccard
  /// per pair instead of deriving it from the raw intersection batch.
  static constexpr bool kNativeJaccard = false;

  const CsrGraph* graph = nullptr;

  [[nodiscard]] const Derived& derived() const noexcept {
    return static_cast<const Derived&>(*this);
  }

  [[nodiscard]] double degree(VertexId v) const noexcept {
    return static_cast<double>(graph->degree(v));
  }

  /// The centralized clamp: raw estimators can stray outside the feasible
  /// range ([0, du + dv] bounds any |N_u ∩ N_v|) — BF/OR can go negative on
  /// near-saturated filters, BF/AND can overshoot on skewed graphs. Every
  /// derived measure funnels through this one definition so all algorithms
  /// see consistent estimates.
  ///
  /// The *_from_intersection family below is the single source of truth
  /// for the derived measures: the per-pair est_* methods and the batched
  /// sweeps both evaluate through it, so a batch is bit-identical to the
  /// pair loop by construction.
  [[nodiscard]] double clamp_intersection(VertexId u, VertexId v, double raw) const noexcept {
    const double cap = degree(u) + degree(v);
    return std::clamp(raw, 0.0, cap);
  }

  [[nodiscard]] double est_intersection_clamped(VertexId u, VertexId v) const noexcept {
    return clamp_intersection(u, v, derived().est_intersection(u, v));
  }

  /// J = |X∩Y| / (|X| + |Y| − |X∩Y|) (Listing 6) from a raw intersection
  /// estimate.
  [[nodiscard]] double jaccard_from_intersection(VertexId u, VertexId v,
                                                 double raw) const noexcept {
    const double du = degree(u), dv = degree(v);
    if (du + dv == 0.0) return 0.0;
    const double inter = clamp_intersection(u, v, raw);
    const double uni = du + dv - inter;
    return uni <= 0.0 ? 1.0 : inter / uni;
  }

  [[nodiscard]] double overlap_from_intersection(VertexId u, VertexId v,
                                                 double raw) const noexcept {
    const double denom = std::min(degree(u), degree(v));
    if (denom == 0.0) return 0.0;
    return clamp_intersection(u, v, raw) / denom;
  }

  [[nodiscard]] double total_from_intersection(VertexId u, VertexId v,
                                               double raw) const noexcept {
    return degree(u) + degree(v) - clamp_intersection(u, v, raw);
  }

  /// MinHash backends shadow est_jaccard with the direct sketch estimate
  /// (and set kNativeJaccard).
  [[nodiscard]] double est_jaccard(VertexId u, VertexId v) const noexcept {
    return jaccard_from_intersection(u, v, derived().est_intersection(u, v));
  }

  [[nodiscard]] double est_overlap(VertexId u, VertexId v) const noexcept {
    return overlap_from_intersection(u, v, derived().est_intersection(u, v));
  }

  [[nodiscard]] double est_common_neighbors(VertexId u, VertexId v) const noexcept {
    return derived().est_intersection(u, v);
  }

  [[nodiscard]] double est_total_neighbors(VertexId u, VertexId v) const noexcept {
    return total_from_intersection(u, v, derived().est_intersection(u, v));
  }

  /// Batched raw-intersection sweep: out[i] = est_intersection(u, cands[i])
  /// for every candidate, bit-identical to the per-pair loop. Backends with
  /// a batch-friendly memory shape (the Bloom family) shadow this with a
  /// cache-blocked kernel sweep; this generic fallback is the loop itself.
  void est_intersection_batch(VertexId u, std::span<const VertexId> cands,
                              double* out) const {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      out[i] = derived().est_intersection(u, cands[i]);
    }
  }
};

/// Shared state of the three Bloom-filter backends: the filter arena plus
/// the (B, b) parameters, with per-vertex word-span access.
template <typename Derived>
struct BloomBackendBase : SketchBackendBase<Derived> {
  static constexpr SketchKind kKind = SketchKind::kBloomFilter;

  const std::uint64_t* arena = nullptr;
  std::size_t words_per_vertex = 0;
  std::uint64_t bits = 0;
  std::uint32_t hashes = 0;
  util::HashFamily family;

  [[nodiscard]] std::span<const std::uint64_t> words(VertexId v) const noexcept {
    return {arena + static_cast<std::size_t>(v) * words_per_vertex, words_per_vertex};
  }

  /// Membership-query view over vertex v's filter (the family travels with
  /// the backend so kernels needing `contains` are self-sufficient).
  [[nodiscard]] BloomFilterView bf(VertexId v) const noexcept {
    return {words(v), bits, hashes, family};
  }

  /// A probe table over every vertex id of the substrate, for the batched
  /// membership filters of the clique kernels (built once per query; see
  /// BloomProbeTable).
  [[nodiscard]] BloomProbeTable probe_table() const {
    return {this->graph->num_vertices(), bits, hashes, family};
  }

  /// Per-thread scratch for the batched popcount sweeps (reused across the
  /// millions of batches an algorithm sweep issues on each thread).
  [[nodiscard]] static std::vector<std::uint64_t>& counts_scratch(std::size_t n) {
    static thread_local std::vector<std::uint64_t> counts;
    counts.resize(n);
    return counts;
  }
};

/// Eq. (2): Swamidass on popcount(B_u AND B_v). The paper's default.
struct BloomAndBackend final : BloomBackendBase<BloomAndBackend> {
  static constexpr BfEstimator kEstimator = BfEstimator::kAnd;

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    return est::bf_intersection_and(util::and_popcount(words(u), words(v)), bits, hashes);
  }

  /// Cache-blocked sweep: u's filter stays hot while candidate rows
  /// stream; same popcounts, same estimator, bit-identical to the loop.
  void est_intersection_batch(VertexId u, std::span<const VertexId> cands,
                              double* out) const {
    auto& counts = counts_scratch(cands.size());
    kernels::and_popcount_batch(words(u), arena, words_per_vertex, cands, counts.data());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      out[i] = est::bf_intersection_and(counts[i], bits, hashes);
    }
  }
};

/// Eq. (4): the B→∞ limiting estimator B_{X∩Y,1}/b.
struct BloomLimitBackend final : BloomBackendBase<BloomLimitBackend> {
  static constexpr BfEstimator kEstimator = BfEstimator::kLimit;

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    return est::bf_intersection_limit(util::and_popcount(words(u), words(v)), hashes);
  }

  void est_intersection_batch(VertexId u, std::span<const VertexId> cands,
                              double* out) const {
    auto& counts = counts_scratch(cands.size());
    kernels::and_popcount_batch(words(u), arena, words_per_vertex, cands, counts.data());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      out[i] = est::bf_intersection_limit(counts[i], hashes);
    }
  }
};

/// Eq. (29): the Swamidass OR baseline (needs exact degrees).
struct BloomOrBackend final : BloomBackendBase<BloomOrBackend> {
  static constexpr BfEstimator kEstimator = BfEstimator::kOr;

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    return est::bf_intersection_or(this->degree(u), this->degree(v),
                                   util::or_popcount(words(u), words(v)), bits, hashes);
  }

  void est_intersection_batch(VertexId u, std::span<const VertexId> cands,
                              double* out) const {
    auto& counts = counts_scratch(cands.size());
    kernels::or_popcount_batch(words(u), arena, words_per_vertex, cands, counts.data());
    const double du = this->degree(u);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      out[i] = est::bf_intersection_or(du, this->degree(cands[i]), counts[i], bits, hashes);
    }
  }
};

/// k-hash MinHash: slot-wise signature comparison, Eq. (5).
struct KHashBackend final : SketchBackendBase<KHashBackend> {
  static constexpr SketchKind kKind = SketchKind::kKHash;
  static constexpr bool kNativeJaccard = true;  // direct slot-match estimate

  const std::uint64_t* arena = nullptr;
  std::uint32_t k = 0;

  [[nodiscard]] std::span<const std::uint64_t> signature(VertexId v) const noexcept {
    return {arena + static_cast<std::size_t>(v) * k, k};
  }

  [[nodiscard]] double est_jaccard(VertexId u, VertexId v) const noexcept {
    const double du = degree(u), dv = degree(v);
    if (du + dv == 0.0) return 0.0;
    return static_cast<double>(KHashSketch::matching_slots(signature(u), signature(v))) /
           static_cast<double>(k);
  }

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    const std::uint32_t matches = KHashSketch::matching_slots(signature(u), signature(v));
    const double j = static_cast<double>(matches) / static_cast<double>(k);
    return est::mh_intersection(j, degree(u), degree(v));
  }

  /// Single-scan combo for the sampling-based kernels: replaces `out` with
  /// the sampled common elements (matching non-empty slots, sorted
  /// ascending, deduplicated) and returns the |N_u ∩ N_v| estimate derived
  /// from the same matching-slot count — one signature scan, where calling
  /// est_intersection separately would re-scan.
  double sampled_intersection(VertexId u, VertexId v, std::vector<VertexId>& out) const {
    out.clear();
    const auto a = signature(u);
    const auto b = signature(v);
    std::uint32_t matches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != kEmptySlot && a[i] == b[i]) {
        ++matches;
        out.push_back(static_cast<VertexId>(a[i]));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    const double j = static_cast<double>(matches) / static_cast<double>(k);
    return est::mh_intersection(j, degree(u), degree(v));
  }
};

/// 1-hash (bottom-k) MinHash: union-restricted sorted merge, §IV-D.
struct OneHashBackend final : SketchBackendBase<OneHashBackend> {
  static constexpr SketchKind kKind = SketchKind::kOneHash;
  static constexpr bool kNativeJaccard = true;  // direct union-merge estimate

  const BottomKEntry* arena = nullptr;
  const std::uint32_t* sizes = nullptr;
  std::uint32_t k = 0;

  [[nodiscard]] std::span<const BottomKEntry> entries(VertexId v) const noexcept {
    return {arena + static_cast<std::size_t>(v) * k, sizes[v]};
  }

  [[nodiscard]] double est_jaccard(VertexId u, VertexId v) const noexcept {
    const double du = degree(u), dv = degree(v);
    if (du + dv == 0.0) return 0.0;
    return OneHashSketch::jaccard_from_spans(entries(u), entries(v), k);
  }

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    const double j = OneHashSketch::jaccard_from_spans(entries(u), entries(v), k);
    return est::mh_intersection(j, degree(u), degree(v));
  }

  /// Sampling-kernel combo matching KHashBackend's: replaces `out` with the
  /// common elements within the union bottom-k (sorted ascending; bottom-k
  /// sketches never contain duplicates) and returns the |N_u ∩ N_v|
  /// estimate. Two O(k) merges (elements + Jaccard), same as the owning
  /// OneHashSketch API.
  double sampled_intersection(VertexId u, VertexId v, std::vector<VertexId>& out) const {
    out.clear();
    OneHashSketch::intersect_elements(entries(u), entries(v), k, out);
    std::sort(out.begin(), out.end());
    return est_intersection(u, v);
  }
};

/// K Minimum Values: union cardinality from the k-th smallest union hash
/// (Eq. (41)), intersection by inclusion–exclusion with exact degrees.
struct KmvBackend final : SketchBackendBase<KmvBackend> {
  static constexpr SketchKind kKind = SketchKind::kKmv;

  const double* arena = nullptr;
  const std::uint32_t* sizes = nullptr;
  std::uint32_t k = 0;

  [[nodiscard]] std::span<const double> values(VertexId v) const noexcept {
    return {arena + static_cast<std::size_t>(v) * k, sizes[v]};
  }

  [[nodiscard]] double est_intersection(VertexId u, VertexId v) const noexcept {
    // Union-of-sorted-lists with the k smallest (kernel-layer min_merge,
    // scalar by contract — double compare order is part of the estimator),
    // then Eq. (41).
    const auto [taken, kth] = kernels::min_merge(values(u), values(v), k);
    const double est_union =
        (taken < k) ? static_cast<double>(taken) : static_cast<double>(k - 1) / kth;
    return std::max(0.0, degree(u) + degree(v) - est_union);
  }
};

// --- ProbGraph glue (member templates declared in prob_graph.hpp). ---

template <typename Backend>
Backend ProbGraph::backend() const noexcept {
  Backend be{};
  be.graph = graph_;
  if constexpr (Backend::kKind == SketchKind::kBloomFilter) {
    be.arena = bf_arena_.data();
    be.words_per_vertex = bf_words_per_vertex_;
    be.bits = bf_bits_;
    be.hashes = config_.bf_hashes;
    be.family = family_;
  } else if constexpr (Backend::kKind == SketchKind::kKHash) {
    be.arena = kh_arena_.data();
    be.k = k_;
  } else if constexpr (Backend::kKind == SketchKind::kOneHash) {
    be.arena = oh_arena_.data();
    be.sizes = sketch_sizes_.data();
    be.k = k_;
  } else {
    static_assert(Backend::kKind == SketchKind::kKmv);
    be.arena = kmv_arena_.data();
    be.sizes = sketch_sizes_.data();
    be.k = k_;
  }
  return be;
}

template <typename F>
decltype(auto) ProbGraph::visit_backend(F&& f) const {
  switch (config_.kind) {
    case SketchKind::kBloomFilter:
      switch (config_.bf_estimator) {
        case BfEstimator::kAnd: return f(backend<BloomAndBackend>());
        case BfEstimator::kLimit: return f(backend<BloomLimitBackend>());
        case BfEstimator::kOr: return f(backend<BloomOrBackend>());
      }
      break;
    case SketchKind::kKHash: return f(backend<KHashBackend>());
    case SketchKind::kOneHash: return f(backend<OneHashBackend>());
    case SketchKind::kKmv: return f(backend<KmvBackend>());
  }
  // Unreachable for any config the ProbGraph constructor accepts; the AND
  // backend is the least-surprising fallback for a corrupted enum.
  return f(backend<BloomAndBackend>());
}

}  // namespace probgraph
