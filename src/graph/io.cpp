#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

namespace probgraph::io {

namespace {

/// Ids must stay below this and counts must not exceed it.
constexpr std::uint64_t kIdLimit = std::numeric_limits<VertexId>::max();

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\v' || *p == '\f')) ++p;
  return p;
}

bool is_comment(std::string_view line) {
  const char* p = skip_blanks(line.data(), line.data() + line.size());
  return p == line.data() + line.size() || *p == '#' || *p == '%';
}

/// Fill `out` with the blank-separated decimal numbers `line` starts with;
/// text after the last one is ignored. False if malformed. A number past
/// 64 bits reads as UINT64_MAX, which every range check rejects.
bool read_numbers(std::string_view line, std::span<std::uint64_t> out) {
  const char* p = line.data();
  const char* end = p + line.size();
  for (std::uint64_t& x : out) {
    const char* q = skip_blanks(p, end);
    if (q == p && &x != out.data()) return false;
    const auto [next, ec] = std::from_chars(q, end, x);
    if (ec == std::errc::result_out_of_range) {
      x = std::numeric_limits<std::uint64_t>::max();
    } else if (ec != std::errc{}) {
      return false;
    }
    p = next;
  }
  return true;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

std::string read_whole_file(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open graph file: " + path);
  std::string text;
  std::size_t used = 0;
  while (used == text.size()) {  // fread stops short only at EOF or an error
    text.resize(std::max<std::size_t>(2 * text.size(), 1 << 20));
    used += std::fread(text.data() + used, 1, text.size() - used, f.get());
  }
  if (std::ferror(f.get()) != 0) throw std::runtime_error("cannot read graph file: " + path);
  text.resize(used);
  return text;
}

}  // namespace

EdgeText scan_edge_text(std::string_view text, TextFormat format, const std::string& name) {
  const bool mm = format == TextFormat::kMatrixMarket;
  EdgeText out;
  std::string_view line;
  std::size_t lineno = 0;
  std::size_t pos = 0;
  const auto next_line = [&] {
    if (pos == text.size()) return false;
    const std::size_t eol = std::min(text.find('\n', pos), text.size());  // memchr
    line = text.substr(pos, eol - pos);
    pos = std::min(eol + 1, text.size());
    ++lineno;
    return true;
  };
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(what + " at " + name + ":" + std::to_string(lineno) + ": " +
                             std::string(line));
  };
  const auto checked_count = [&](std::uint64_t n) {
    if (n > kIdLimit) fail("vertex count out of range");
    return static_cast<VertexId>(n);
  };

  if (mm) {
    if (!next_line() || !line.starts_with("%%MatrixMarket")) {
      throw std::runtime_error("not a MatrixMarket file: " + name);
    }
    while (next_line() && is_comment(line)) {
    }
    std::array<std::uint64_t, 3> size{};  // rows, cols, nnz
    if (!read_numbers(line, size)) fail("malformed MatrixMarket size line");
    out.declared_n = checked_count(std::max(size[0], size[1]));
    // nnz is untrusted: an entry takes at least 4 bytes ("1 1\n").
    out.edges.reserve(std::min<std::uint64_t>(size[2], (text.size() - pos + 1) / 4));
  }
  std::array<std::uint64_t, 2> uv{};
  while (next_line()) {
    if (is_comment(line)) {
      for (const std::string_view tag : {"n=", "Nodes: "}) {  // edge-list count tags
        std::array<std::uint64_t, 1> n{};
        const std::size_t at = line.find(tag);
        if (!mm && at != std::string_view::npos && read_numbers(line.substr(at + tag.size()), n)) {
          out.declared_n = std::max(out.declared_n, checked_count(n[0]));
        }
      }
      continue;
    }
    if (!read_numbers(line, uv)) {
      fail(mm ? "malformed MatrixMarket entry" : "malformed edge-list line");
    }
    if (mm) {
      if (uv[0] == 0 || uv[1] == 0) fail("MatrixMarket indices must be 1-based");
      --uv[0];
      --uv[1];
    }
    if (uv[0] >= kIdLimit || uv[1] >= kIdLimit) {
      fail("vertex id out of range (ids must be below 4294967295)");
    }
    out.edges.emplace_back(static_cast<VertexId>(uv[0]), static_cast<VertexId>(uv[1]));
  }
  return out;
}

EdgeText read_edge_text(const std::string& path, TextFormat format) {
  return scan_edge_text(read_whole_file(path), format, path);
}

CsrGraph read_edge_list(const std::string& path) {
  EdgeText t = read_edge_text(path, TextFormat::kEdgeList);
  return GraphBuilder::from_edges(std::move(t.edges), t.declared_n);
}

void write_edge_list(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  out << "# probgraph edge list: n=" << g.num_vertices() << " m=" << g.num_edges() << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

CsrGraph read_matrix_market(const std::string& path) {
  EdgeText t = read_edge_text(path, TextFormat::kMatrixMarket);
  return GraphBuilder::from_edges(std::move(t.edges), t.declared_n);
}

}  // namespace probgraph::io
