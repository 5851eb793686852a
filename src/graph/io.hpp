// Graph file I/O.
//
// Supports the two formats the paper's dataset sources ship in:
//   * whitespace-separated edge lists ("u v" per line, '#'/'%' comments) —
//     the SNAP [114] and KONECT [115] convention,
//   * MatrixMarket coordinate files (DIMACS/SuiteSparse convention).
// One scanner (scan_edge_text) reads both, by this grammar:
//   * Lines end at '\n'. A blank is ' ', '\t', '\r', '\v' or '\f'. A line
//     that is empty after its leading blanks, or whose first non-blank is
//     '#' or '%', is a comment (so CRLF and whitespace-only lines are too).
//   * Edge lists: a comment holding "n=<count>" or "Nodes: <count>"
//     declares the vertex count (the largest wins), so trailing isolated
//     vertices survive a round trip.
//   * Every other line is "U V ...": two unsigned decimal ids separated by
//     blanks; text after V (weights, timestamps, values) is ignored.
//   * Ids must be below 4294967295, the VertexId max that no vertex count
//     covers. A larger id or declared count, or a malformed line, throws
//     std::runtime_error naming "path:line".
//   * MatrixMarket: line 1 starts with "%%MatrixMarket"; the first
//     non-comment line after it is "rows cols nnz"; later lines are entries
//     with 1-based indices (0 is an error), converted to 0-based. The
//     vertex count is max(rows, cols).
// Graphs are symmetrized/simplified on load via GraphBuilder.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"

namespace probgraph::io {

enum class TextFormat { kEdgeList, kMatrixMarket };

/// A scanned graph text: the pairs as written (0-based, in file order) and
/// the vertex count the text declares (0 if none).
struct EdgeText {
  std::vector<Edge> edges;
  VertexId declared_n = 0;
};

/// Scan `text` by the grammar above; errors cite `name` (the source path).
EdgeText scan_edge_text(std::string_view text, TextFormat format, const std::string& name);

/// Read a file whole, until EOF (so `<(zcat g.el.gz)` works), and scan it.
EdgeText read_edge_text(const std::string& path, TextFormat format);

/// Read a SNAP-style edge list. Vertex IDs are used as-is (no compaction),
/// so files with ID gaps produce isolated vertices.
CsrGraph read_edge_list(const std::string& path);

/// Write an undirected graph as an edge list with one "u v" line per
/// undirected edge (u < v).
void write_edge_list(const CsrGraph& g, const std::string& path);

/// Read a MatrixMarket coordinate file.
CsrGraph read_matrix_market(const std::string& path);

}  // namespace probgraph::io
