// Fuzz target: io::scan_edge_text — the edge-list / MatrixMarket scanner
// behind read_edge_list, read_matrix_market and `pgtool update`'s edge
// files.
//
// Input encoding: byte 0 picks the format (even: edge list, odd:
// MatrixMarket); the rest is the file text.
//
// Checked invariants (abort = finding):
//   * malformed text throws std::runtime_error and nothing else escapes
//     (a length_error/bad_alloc from a hostile MatrixMarket nnz is a bug);
//   * every id returned is below VertexId's max, the one id no vertex
//     count covers;
//   * an edge takes at least 4 bytes of text ("1 2\n"), so the pair count
//     is bounded by the input size.
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace probgraph;
  if (size < 1) return 0;
  const io::TextFormat format =
      data[0] % 2 == 0 ? io::TextFormat::kEdgeList : io::TextFormat::kMatrixMarket;
  const std::string_view text(reinterpret_cast<const char*>(data + 1), size - 1);
  try {
    const io::EdgeText t = io::scan_edge_text(text, format, "fuzz");
    if (t.edges.size() > text.size() / 4 + 1) std::abort();
    for (const auto& [u, v] : t.edges) {
      if (u == std::numeric_limits<VertexId>::max() ||
          v == std::numeric_limits<VertexId>::max()) {
        std::abort();
      }
    }
  } catch (const std::runtime_error&) {
    // Rejection is the expected outcome for malformed text.
  }
  return 0;
}
