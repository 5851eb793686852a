// 4-Clique Counting (paper Listing 2).
//
// The reformulated algorithm exposes |X ∩ Y| twice per DAG arc (u, v):
//   C3 = N+_u ∩ N+_v                 // the 3-cliques through (u, v)
//   for w ∈ C3: ck += |N+_w ∩ C3|    // extensions to 4-cliques
//
// Exact: materialize C3 by merge, then merge again per w.
//
// ProbGraph (BF): C3's *membership list* is recovered by querying each
// element of N+_v against BF(N+_u) (false positives possible — BF
// semantics; the probes go through a per-query probe table, see
// clique_count.cpp); the inner cardinality is estimated by the chained bitwise
// AND  B_u ∧ B_v ∧ B_w  fed through Eq. (2), which estimates
// |N+_u ∩ N+_v ∩ N+_w| = |N+_w ∩ C3| directly.
//
// ProbGraph (MinHash): C3s = M(N+_u) ∩ M(N+_v) is an enumerable *sample*
// of C3 at effective rate p̂ = |C3s| / est|C3| (est via Eq. (5)). Both the
// w-loop and the inner intersection are subsampled at rate p̂, so the
// contribution of each arc is rescaled by 1/p̂²:
//   ck += (1/p̂²) · Σ_{w∈C3s} |N+_w ∩ C3s|.
// KMV sketches store hash values only, so C3 cannot be enumerated; the
// KMV kind is rejected at runtime.
#pragma once

#include <cstdint>

#include "core/prob_graph.hpp"
#include "graph/csr_graph.hpp"

namespace probgraph::algo {

/// Exact 4-clique count of an undirected graph (DAG built internally).
[[nodiscard]] std::uint64_t four_clique_count_exact(const CsrGraph& g);

/// Exact 4-clique count over a prebuilt degree-oriented DAG.
[[nodiscard]] std::uint64_t four_clique_count_exact_oriented(const CsrGraph& dag);

/// ProbGraph 4-clique estimate. `pg` must be built over the degree-oriented
/// DAG of the input graph. Bit-identical at any OpenMP thread count.
/// Throws std::invalid_argument for SketchKind::kKmv.
[[nodiscard]] double four_clique_count_probgraph(const ProbGraph& pg);

}  // namespace probgraph::algo
