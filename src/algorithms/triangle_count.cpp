#include "algorithms/triangle_count.hpp"

#include <algorithm>
#include <vector>

#include "core/backends.hpp"
#include "core/intersect.hpp"
#include "graph/orientation.hpp"
#include "util/block_sum.hpp"

namespace probgraph::algo {

namespace {

template <typename Kernel>
std::uint64_t tc_oriented_loop(const CsrGraph& dag, Kernel&& kernel) {
  const VertexId n = dag.num_vertices();
  std::uint64_t total = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : total)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    const auto nv = dag.neighbors(static_cast<VertexId>(v));
    std::uint64_t local = 0;
    for (const VertexId u : nv) {
      local += kernel(nv, dag.neighbors(u));
    }
    total += local;
  }
  return total;
}

}  // namespace

std::uint64_t triangle_count_exact_oriented(const CsrGraph& dag, ExactIntersect kernel) {
  switch (kernel) {
    case ExactIntersect::kMerge:
      return tc_oriented_loop(dag, [](auto a, auto b) { return intersect_size_merge(a, b); });
    case ExactIntersect::kGallop:
      return tc_oriented_loop(dag, [](auto a, auto b) { return intersect_size_gallop(a, b); });
    case ExactIntersect::kAdaptive:
      return tc_oriented_loop(dag,
                              [](auto a, auto b) { return intersect_size_adaptive(a, b); });
  }
  return 0;
}

std::uint64_t triangle_count_exact(const CsrGraph& g, ExactIntersect kernel) {
  return triangle_count_exact_oriented(degree_orient(g), kernel);
}

namespace {

/// Sketch-estimated node-iterator sum, monomorphized per backend: each
/// vertex's qualifying neighbors are scored through one batched
/// est_intersection sweep (candidate rows stream while v's sketch stays
/// hot), then accumulated in neighbor order. The per-vertex sums add up
/// through util::fixed_block_sum, so the estimate does not depend on the
/// thread count.
template <typename Backend>
double tc_estimate_loop(const CsrGraph& g, const Backend be, TcMode mode) {
  const double total = util::fixed_block_sum(g.num_vertices(), [&] {
    // scores: the thread's batch output. `be` is captured by value: each
    // thread's own copy stays in registers, where the by-reference capture
    // ran the sketch tc 5-10% slower (scale-16 R-MAT, 4 threads).
    return [&g, be, mode, scores = std::vector<double>()](VertexId v, double& acc) mutable {
      auto cands = g.neighbors(v);
      if (mode == TcMode::kFull) {
        // Sorted neighborhoods: the u > v half is the suffix past v.
        const auto first = std::upper_bound(cands.begin(), cands.end(), v);
        cands = cands.subspan(static_cast<std::size_t>(first - cands.begin()));
      }
      if (cands.empty()) return;
      scores.resize(cands.size());
      be.est_intersection_batch(v, cands, scores.data());
      double local = 0.0;
      for (const double s : scores) local += s;
      acc += local;
    };
  });
  return mode == TcMode::kFull ? total / 3.0 : total;
}

}  // namespace

double triangle_count_probgraph(const ProbGraph& pg, TcMode mode) {
  return pg.visit_backend(
      [&](const auto& be) { return tc_estimate_loop(pg.graph(), be, mode); });
}

}  // namespace probgraph::algo
