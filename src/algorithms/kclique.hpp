// General k-clique counting: the natural extension of Listing 2.
//
// The paper introduces "higher-order Clique Counting, a problem important
// for dense subgraph discovery [68]" and presents the 4-clique case; the
// same reformulation exposes |X ∩ Y| for arbitrary k (the kClist-style
// recursion of Danisch et al. [68] over the degree-oriented DAG):
//
//   choose v1 < v2 < ... < v_{k-1} in rank order, each adjacent to all
//   previous; add |N+(v1) ∩ ... ∩ N+(v_{k-1})| — the number of ways to
//   extend the chosen (k-1)-clique to a k-clique.
//
// k = 3 degenerates to Listing 1 (TC) and k = 4 to Listing 2.
//
// The ProbGraph variant replaces both the candidate filtering (BF
// membership queries) and the final cardinality (chained bitwise AND of
// all chosen filters, fed through Eq. (2)) — the same construction as the
// 4-clique BF scheme, applied recursively. BF only: MinHash/KMV cannot
// chain intersections beyond one level without enumeration.
#pragma once

#include <cstdint>

#include "core/prob_graph.hpp"
#include "graph/csr_graph.hpp"

namespace probgraph::algo {

/// Exact k-clique count over a prebuilt degree-oriented DAG. k >= 3.
[[nodiscard]] std::uint64_t kclique_count_exact_oriented(const CsrGraph& dag, unsigned k);

/// Exact k-clique count of an undirected graph (DAG built internally).
[[nodiscard]] std::uint64_t kclique_count_exact(const CsrGraph& g, unsigned k);

/// ProbGraph k-clique estimate; `pg` must be a Bloom-filter ProbGraph built
/// over the degree-oriented DAG. Throws std::invalid_argument otherwise.
/// Bit-identical at any OpenMP thread count.
[[nodiscard]] double kclique_count_probgraph(const ProbGraph& pg, unsigned k);

}  // namespace probgraph::algo
