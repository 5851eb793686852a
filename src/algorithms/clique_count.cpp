// 4-clique counting (see clique_count.hpp for the algorithm). Two
// implementation choices of the sketch paths:
//
// * BF C3 membership. Every query builds one BloomProbeTable over the DAG
//   substrate: the b bit positions of every vertex id (O(n·b) hashes,
//   4·n·b bytes). N+v is then filtered against BF(N+u) by
//   kernels::bloom_member_compact, b loads and a branch-free store per
//   probe, instead of b hashes, b 64-bit divisions and a branch per
//   BloomFilterView::contains. The kept lists, their order and every
//   popcount are the same as with contains.
// * Thread-count-independent sums. The BF and MinHash estimators add
//   their terms through util::fixed_block_sum, so the estimate is
//   bit-identical at any OMP_NUM_THREADS.
#include "algorithms/clique_count.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/backends.hpp"
#include "core/bloom_filter.hpp"
#include "core/estimators.hpp"
#include "core/intersect.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"
#include "util/block_sum.hpp"

namespace probgraph::algo {

std::uint64_t four_clique_count_exact_oriented(const CsrGraph& dag) {
  const VertexId n = dag.num_vertices();
  std::uint64_t total = 0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<VertexId> c3;  // per-thread scratch for C3 = N+u ∩ N+v
#pragma omp for schedule(dynamic, 32)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      const auto nu = dag.neighbors(static_cast<VertexId>(u));
      for (const VertexId v : nu) {
        c3.clear();
        intersect_into(nu, dag.neighbors(v), c3);
        for (const VertexId w : c3) {
          total += intersect_size_merge(dag.neighbors(w), {c3.data(), c3.size()});
        }
      }
    }
  }
  return total;
}

std::uint64_t four_clique_count_exact(const CsrGraph& g) {
  return four_clique_count_exact_oriented(degree_orient(g));
}

namespace {

template <typename Backend>
double four_clique_bf(const CsrGraph& dag, const Backend be) {
  const BloomProbeTable probes = be.probe_table();
  return util::fixed_block_sum(dag.num_vertices(), [&] {
    return [&dag, &be, &probes, c3_buf = std::vector<VertexId>(),
            uv = std::vector<std::uint64_t>(),
            counts = std::vector<std::uint64_t>()](VertexId u, double& acc) mutable {
      // c3_buf grows to the largest N+v and never shrinks; uv is B_u AND
      // B_v, materialized once per (u, v); counts are the batched and3
      // popcounts over C3.
      const auto wu = be.words(u);
      for (const VertexId v : dag.neighbors(u)) {
        // Approximate C3 membership list: elements of N+v inside BF(N+u).
        const auto nv = dag.neighbors(v);
        if (c3_buf.size() < nv.size()) c3_buf.resize(nv.size());
        const std::span<const VertexId> c3(c3_buf.data(), probes.filter(wu, nv, c3_buf.data()));
        if (c3.empty()) continue;
        // popcount(B_u & B_v & B_w) over all w ∈ C3 as one batched sweep:
        // the (u, v) AND is hoisted out of the w loop — it was recomputed
        // |C3| times inside and3_popcount — and the candidate filters
        // stream against the hot uv row. Integer popcounts: bit-identical.
        const auto wv = be.words(v);
        uv.resize(wu.size());
        for (std::size_t i = 0; i < wu.size(); ++i) uv[i] = wu[i] & wv[i];
        counts.resize(c3.size());
        kernels::and_popcount_batch(uv, be.arena, be.words_per_vertex, c3,
                                    counts.data());
        for (const std::uint64_t ones : counts) {
          acc += est::bf_intersection_and(ones, be.bits, be.hashes);
        }
      }
    };
  });
}

template <typename Backend>
double four_clique_mh(const CsrGraph& dag, const Backend be) {
  return util::fixed_block_sum(dag.num_vertices(), [&] {
    return [&dag, &be, c3s = std::vector<VertexId>()](VertexId u, double& acc) mutable {
      for (const VertexId v : dag.neighbors(u)) {
        const double est_c3 = be.sampled_intersection(u, v, c3s);
        if (c3s.empty() || est_c3 <= 0.0) continue;
        // Inverse sampling fraction; C3s can exceed the estimate on small
        // sets, in which case the sample is effectively exhaustive.
        const double inv_p =
            std::max(1.0, est_c3 / static_cast<double>(c3s.size()));
        double inner = 0.0;
        for (const VertexId w : c3s) {
          inner += static_cast<double>(
              intersect_size_merge(dag.neighbors(w), {c3s.data(), c3s.size()}));
        }
        acc += inv_p * inv_p * inner;
      }
    };
  });
}

}  // namespace

double four_clique_count_probgraph(const ProbGraph& pg) {
  return pg.visit_backend([&](const auto& be) -> double {
    using Backend = std::decay_t<decltype(be)>;
    if constexpr (Backend::kKind == SketchKind::kBloomFilter) {
      return four_clique_bf(pg.graph(), be);
    } else if constexpr (Backend::kKind == SketchKind::kKHash ||
                         Backend::kKind == SketchKind::kOneHash) {
      return four_clique_mh(pg.graph(), be);
    } else {
      throw std::invalid_argument(
          "four_clique_count_probgraph: KMV sketches cannot enumerate C3 "
          "(store hash values, not elements); use BF or MinHash");
    }
  });
}

}  // namespace probgraph::algo
