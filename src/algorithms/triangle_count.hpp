// Triangle Counting (paper Listing 1 and §VII).
//
// Exact: the node-iterator algorithm over the degree-oriented DAG — for
// every arc (v, u) of the DAG, add |N+_v ∩ N+_u|. This is the tuned
// GAP/GMS-style baseline the paper compares against, with both the merge
// and galloping intersection kernels.
//
// ProbGraph: the same loop with the exact intersection replaced by a sketch
// estimate. Two modes are provided:
//   * kOriented — sketches are built over the N+ DAG; the sum over DAG arcs
//     estimates TC directly (Listing 1 with blue |N+v ∩ N+u| swapped),
//   * kFull     — sketches over the undirected graph; TĈ = ⅓·Σ_{(u,v)∈E}
//     |N̂u ∩ N̂v|, the estimator analyzed in Theorem VII.1.
#pragma once

#include <cstdint>

#include "core/prob_graph.hpp"
#include "graph/csr_graph.hpp"

namespace probgraph::algo {

/// Which exact intersection kernel the baseline uses (Fig. 1 panel 2).
enum class ExactIntersect : std::uint8_t { kMerge, kGallop, kAdaptive };

/// Exact triangle count. Builds the degree-oriented DAG internally.
[[nodiscard]] std::uint64_t triangle_count_exact(
    const CsrGraph& g, ExactIntersect kernel = ExactIntersect::kAdaptive);

/// Exact triangle count over a prebuilt DAG (benches reuse one DAG across
/// schemes to keep preprocessing out of the measured region).
[[nodiscard]] std::uint64_t triangle_count_exact_oriented(
    const CsrGraph& dag, ExactIntersect kernel = ExactIntersect::kAdaptive);

/// How the ProbGraph estimator maps sketch sums to a triangle count.
enum class TcMode : std::uint8_t {
  kOriented,  ///< pg built over the N+ DAG: TĈ = Σ_{(v,u)∈DAG} est(v,u)
  kFull,      ///< pg built over G itself:  TĈ = ⅓·Σ_{{u,v}∈E} est(u,v)
};

/// ProbGraph triangle-count estimate. `pg` must have been constructed over
/// the graph matching `mode` (the DAG for kOriented, G for kFull).
/// Bit-identical at any OpenMP thread count.
[[nodiscard]] double triangle_count_probgraph(const ProbGraph& pg,
                                              TcMode mode = TcMode::kOriented);

}  // namespace probgraph::algo
