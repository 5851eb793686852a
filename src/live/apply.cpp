#include "live/apply.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/incremental.hpp"
#include "graph/builder.hpp"
#include "graph/orientation.hpp"
#include "util/timer.hpp"

namespace probgraph::live {

namespace {

/// The canonical undirected edge set of a symmetric CSR: (u, v) with
/// u < v, lexicographically sorted (free, since neighborhoods are sorted
/// and vertices are walked ascending).
std::vector<Edge> edge_set_of(const CsrGraph& g) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (v > u) edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// A DAG-only snapshot carries no symmetric CSR, but the DAG's arcs ARE
/// the edge set (degree orientation keeps exactly one arc per edge), so
/// the symmetric graph is recoverable.
std::vector<Edge> edge_set_of_dag(const CsrGraph& dag) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(dag.num_directed_edges()));
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (const VertexId v : dag.neighbors(u)) {
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Normalize a batch edge list to canonical form: (min, max) endpoints,
/// self-loops dropped, duplicates collapsed, sorted.
std::vector<Edge> normalize(const std::vector<Edge>& raw) {
  std::vector<Edge> edges;
  edges.reserve(raw.size());
  for (const auto& [a, b] : raw) {
    if (a == b) continue;
    edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Patch one substrate from its old image to the new graph, or fall back
/// to a cold rebuild when the derived parameters shifted.
ProbGraph update_substrate(const ProbGraph& old_pg, const CsrGraph& new_g,
                           ProbGraphConfig cfg, ApplyStats& stats) {
  util::Timer timer;
  const DerivedSketchParams want =
      derive_sketch_params(cfg, new_g.num_vertices(), new_g.memory_bytes());
  if (want != sketch_params_of(old_pg)) {
    ++stats.substrates_rebuilt;
    return ProbGraph(new_g, cfg);
  }

  const CsrGraph& old_g = old_pg.graph();
  const VertexId old_n = old_g.num_vertices();
  const VertexId new_n = new_g.num_vertices();
  SketchUpdater up(old_pg, new_n);
  std::vector<VertexId> added;
  for (VertexId v = 0; v < new_n; ++v) {
    const std::span<const VertexId> old_nb =
        v < old_n ? old_g.neighbors(v) : std::span<const VertexId>{};
    const std::span<const VertexId> new_nb = new_g.neighbors(v);
    if (old_nb.size() == new_nb.size() &&
        std::equal(old_nb.begin(), old_nb.end(), new_nb.begin())) {
      continue;
    }
    if (std::includes(new_nb.begin(), new_nb.end(), old_nb.begin(), old_nb.end())) {
      added.clear();
      std::set_difference(new_nb.begin(), new_nb.end(), old_nb.begin(), old_nb.end(),
                          std::back_inserter(added));
      for (const VertexId x : added) up.apply_insert(v, x);
      ++stats.vertices_patched;
    } else {
      up.rebuild_vertex(v, new_nb);
      ++stats.vertices_rebuilt;
    }
  }
  return std::move(up).seal(new_g, cfg, timer.seconds());
}

}  // namespace

UpdatedSnapshot apply_batch(const io::Snapshot& snap, const DeltaBatch& batch) {
  util::Timer timer;

  // --- The updated edge set: (old ∪ inserts) ∖ deletes, canonical form. ---
  const CsrGraph* old_sym = snap.graph_for(/*degree_oriented=*/false);
  const CsrGraph* old_dag = snap.graph_for(/*degree_oriented=*/true);
  const std::vector<Edge> old_edges =
      old_sym != nullptr ? edge_set_of(*old_sym) : edge_set_of_dag(*old_dag);
  const VertexId old_n =
      old_sym != nullptr ? old_sym->num_vertices() : old_dag->num_vertices();

  const std::vector<Edge> inserts = normalize(batch.inserts);
  const std::vector<Edge> deletes = normalize(batch.deletes);

  std::vector<Edge> with_inserts;
  with_inserts.reserve(old_edges.size() + inserts.size());
  std::set_union(old_edges.begin(), old_edges.end(), inserts.begin(), inserts.end(),
                 std::back_inserter(with_inserts));
  std::vector<Edge> new_edges;
  new_edges.reserve(with_inserts.size());
  std::set_difference(with_inserts.begin(), with_inserts.end(), deletes.begin(),
                      deletes.end(), std::back_inserter(new_edges));

  UpdatedSnapshot out;
  // Exact applied counts: symmetric differences against the old set.
  {
    std::vector<Edge> gained;
    std::set_difference(new_edges.begin(), new_edges.end(), old_edges.begin(),
                        old_edges.end(), std::back_inserter(gained));
    std::vector<Edge> lost;
    std::set_difference(old_edges.begin(), old_edges.end(), new_edges.begin(),
                        new_edges.end(), std::back_inserter(lost));
    out.stats.inserts_applied = gained.size();
    out.stats.deletes_applied = lost.size();
  }

  // Vertices never disappear (sketch slots for isolated vertices stay
  // empty); the count can only grow, via inserted endpoints. It is
  // counted in 64 bits: an inserted id of VertexId's max has no count.
  std::uint64_t new_n = old_n;
  for (const auto& [u, v] : inserts) {
    new_n = std::max<std::uint64_t>(new_n, std::uint64_t{std::max(u, v)} + 1);
  }
  if (new_n == 0) throw std::invalid_argument("apply_batch: empty graph");
  if (new_n > std::numeric_limits<VertexId>::max()) {
    throw std::invalid_argument("apply_batch: vertex id 4294967295 is out of range");
  }

  // --- New graphs. ---
  out.sym = std::make_unique<const CsrGraph>(
      GraphBuilder::from_edges(std::move(new_edges), static_cast<VertexId>(new_n)));
  if (old_dag != nullptr) {
    out.dag = std::make_unique<const CsrGraph>(degree_orient(*out.sym));
  }
  out.stats.num_vertices = out.sym->num_vertices();
  out.stats.num_edges = out.sym->num_edges();

  // --- New substrates, in the source file's order (primary first). ---
  const auto& infos = snap.info().substrates;
  out.sketches.reserve(infos.size());  // ProbGraphs hold graph pointers; no reallocation
  for (const auto& info : infos) {
    const ProbGraph* old_pg = snap.find_substrate(info.kind, info.degree_oriented);
    const CsrGraph& new_g = info.degree_oriented ? *out.dag : *out.sym;
    ProbGraphConfig cfg = old_pg->config();
    if (info.degree_oriented) {
      // The DAG budget references the SYMMETRIC CSR bytes (§V-A), exactly
      // as build_substrates sets it on a cold build of the updated graph.
      cfg.budget_reference_bytes = out.sym->memory_bytes();
    }
    out.sketches.push_back(update_substrate(*old_pg, new_g, cfg, out.stats));
  }
  for (std::size_t i = 0; i < infos.size(); ++i) {
    out.substrates.push_back({&out.sketches[i], infos[i].degree_oriented});
  }

  out.stats.seconds = timer.seconds();
  return out;
}

}  // namespace probgraph::live
