// Edge-list → CSR construction.
//
// Mirrors the loading pipeline the paper takes from the GAP Benchmark
// Suite [105]: symmetrize, drop self-loops, deduplicate parallel edges,
// sort neighborhoods, and emit CSR. Construction is parallelized with a
// counting pass + prefix sum (work O(n + m), depth O(log n)).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace probgraph {

/// An undirected edge as an unordered pair of endpoints.
using Edge = std::pair<VertexId, VertexId>;

class GraphBuilder {
 public:
  /// Build a simple undirected CSR graph (symmetric adjacency, no
  /// self-loops, no duplicates) from an arbitrary edge list.
  /// `num_vertices` of 0 means "infer from the maximum endpoint + 1". An
  /// endpoint of std::numeric_limits<VertexId>::max() throws
  /// std::invalid_argument (no count covers it); so does from_arcs.
  static CsrGraph from_edges(std::vector<Edge> edges, VertexId num_vertices = 0);

  /// Build a *directed* CSR from directed arcs (used for the N+ DAG and by
  /// tests); sorts and deduplicates per source, keeps the arcs as given.
  static CsrGraph from_arcs(std::vector<Edge> arcs, VertexId num_vertices = 0);
};

}  // namespace probgraph
