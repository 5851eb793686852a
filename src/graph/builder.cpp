#include "graph/builder.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace probgraph {

namespace {

VertexId infer_num_vertices(const std::vector<Edge>& edges, VertexId requested) {
  VertexId max_id = 0;
  for (const auto& [u, v] : edges) max_id = std::max({max_id, u, v});
  // VertexId's max has no `id + 1` vertex count.
  if (max_id == std::numeric_limits<VertexId>::max()) {
    throw std::invalid_argument("GraphBuilder: vertex id 4294967295 is out of range");
  }
  return edges.empty() ? requested : std::max(requested, max_id + 1);
}

/// Shared tail of both build paths: arcs must already contain every directed
/// arc exactly as it should appear; we bucket, sort, and deduplicate.
CsrGraph build_from_directed(std::vector<Edge>& arcs, VertexId n) {
  std::vector<EdgeId> counts(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : arcs) {
    (void)v;
    ++counts[u + 1];
  }
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];

  std::vector<VertexId> adj(arcs.size());
  std::vector<EdgeId> cursor(counts.begin(), counts.end() - 1);
  for (const auto& [u, v] : arcs) adj[cursor[u]++] = v;

  // Sort and deduplicate each neighborhood, then compact in place.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  EdgeId write = 0;
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    std::sort(adj.begin() + static_cast<std::ptrdiff_t>(counts[v]),
              adj.begin() + static_cast<std::ptrdiff_t>(counts[v + 1]));
  }
  std::vector<VertexId> compact;
  compact.reserve(adj.size());
  for (VertexId v = 0; v < n; ++v) {
    VertexId prev = std::numeric_limits<VertexId>::max();
    for (EdgeId i = counts[v]; i < counts[v + 1]; ++i) {
      if (adj[i] != prev) {
        compact.push_back(adj[i]);
        prev = adj[i];
        ++write;
      }
    }
    offsets[v + 1] = write;
  }
  return CsrGraph(std::move(offsets), std::move(compact));
}

}  // namespace

CsrGraph GraphBuilder::from_edges(std::vector<Edge> edges, VertexId num_vertices) {
  const VertexId n = infer_num_vertices(edges, num_vertices);
  std::vector<Edge> arcs;
  arcs.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;  // drop self-loops (simple-graph semantics)
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  return build_from_directed(arcs, n);
}

CsrGraph GraphBuilder::from_arcs(std::vector<Edge> arcs, VertexId num_vertices) {
  const VertexId n = infer_num_vertices(arcs, num_vertices);
  std::erase_if(arcs, [](const Edge& e) { return e.first == e.second; });
  return build_from_directed(arcs, n);
}

}  // namespace probgraph
