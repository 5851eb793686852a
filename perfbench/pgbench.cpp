// pgbench — the benchmark's helper program. run.py drives it; see
// README.md next to this file for the workloads and metrics.
//
//   pgbench gen --scale S --edge-factor E --seed N --out FILE
//       Seeded, single-threaded R-MAT edge list ("u v" lines). Prints the
//       edge count, byte count and an FNV-1a digest of the file.
//   pgbench prepare --snapshot S --seed N --kh-share F --out-dir D --first REQUEST
//       The request stream and every expected reply, computed in-process as
//       format_reply(Engine::run(parse_request(line))) on the same snapshot:
//       D/first.txt (the reply to REQUEST), D/requests.txt, D/expected.txt;
//       64 edges absent from the graph (D/edges.txt), the replies of the graph with them inserted
//       (D/expected_mod.txt) and a probe request whose reply tells the two
//       graph states apart (D/probe.txt: request, base reply, updated
//       reply); the exact tc, 4cc and cluster replies from the
//       algorithms entry points (D/exact.txt).
//   pgbench load --port P --dir D --readers R --writer 0|1 --slice-ms S --lat FILE
//       Closed-loop client, in rounds read from stdin (see load.cpp).
//   pgbench trace ...
//       The traced per-layer run (see trace.cpp).
//   pgbench selftest
//       Checks of the reply checker the load client uses.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/triangle_count.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "pgbench.hpp"

namespace pgbench {

namespace {

constexpr std::uint64_t kRequests = 20000;  // point requests in the stream
constexpr std::uint64_t kLiveEdges = 64;    // edges of the writer's batch

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
};

struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
};

struct GenResult {
  std::uint64_t edges = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
};

// R-MAT with the Graph500 quadrant probabilities. One RNG stream on one
// thread, so the file depends on the seed alone, never on the machine.
// Vertex ids are relabelled by a seeded permutation so hubs are not the low
// ids. Self-loops and duplicates are kept: pgtool build drops them.
GenResult generate_rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                        const std::string& path) {
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t m = n * edge_factor;
  SplitMix64 rng{seed};
  std::vector<std::uint32_t> perm(n);
  for (std::uint64_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::uint64_t i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  GenResult res;
  Fnv64 fnv;
  std::string buf;
  const auto flush = [&] {
    fnv.add(buf);
    res.bytes += buf.size();
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  char num[16];
  const auto put = [&](std::uint32_t x, char sep) {
    const auto r = std::to_chars(num, num + sizeof num, x);
    buf.append(num, r.ptr);
    buf.push_back(sep);
  };
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t u = 0, v = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double r = rng.uniform();
      const std::uint64_t bit = std::uint64_t{1} << level;
      if (r < kA) {
      } else if (r < kA + kB) {
        v |= bit;
      } else if (r < kA + kB + kC) {
        u |= bit;
      } else {
        u |= bit;
        v |= bit;
      }
    }
    put(perm[u], ' ');
    put(perm[v], '\n');
    if (buf.size() >= (1u << 20)) flush();
  }
  flush();
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
  res.edges = m;
  res.digest = fnv.h;
  return res;
}

int cmd_gen(const Flags& f) {
  const GenResult r =
      generate_rmat(static_cast<unsigned>(flag_u64(f, "scale")),
                    static_cast<unsigned>(flag_u64(f, "edge-factor")), flag_u64(f, "seed"),
                    flag(f, "out"));
  std::printf("{\"edges\": %llu, \"bytes\": %llu, \"digest\": \"%016llx\"}\n",
              static_cast<unsigned long long>(r.edges), static_cast<unsigned long long>(r.bytes),
              static_cast<unsigned long long>(r.digest));
  return 0;
}

std::string reply_for(engine::Engine& eng, const std::string& line) {
  const engine::ParsedRequest req = engine::parse_request(line);
  if (!req.query) return engine::format_error(req.error);
  try {
    return engine::format_reply(eng.run(*req.query));
  } catch (const std::exception& e) {
    return engine::format_error(e.what());
  }
}

std::vector<std::string> replies_for(engine::Engine& eng, const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& l : lines) out.push_back(reply_for(eng, l));
  return out;
}

// Point queries: 1- or 8-pair `pair` requests over intersection or jaccard;
// `kh_share` of them route to the k-hash substrate. Each endpoint is
// uniform with probability 1/2, else the endpoint of a uniformly random
// edge, so hubs appear in proportion to their degree.
std::vector<std::string> make_requests(const CsrGraph& g, std::uint64_t count, double kh_share,
                                       SplitMix64& rng) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> cum(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) cum[v + 1] = cum[v] + g.degree(v);
  const auto pick = [&]() -> VertexId {
    if (rng.uniform() < 0.5 || cum[n] == 0) return static_cast<VertexId>(rng.below(n));
    const EdgeId arc = rng.below(cum[n]);
    return static_cast<VertexId>(std::upper_bound(cum.begin(), cum.end(), arc) - cum.begin() - 1);
  };
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned pairs = rng.below(2) == 0 ? 1 : 8;
    std::string line = rng.below(2) == 0 ? "pair intersection" : "pair jaccard";
    for (unsigned p = 0; p < pairs; ++p) {
      line += ' ' + std::to_string(pick());
      line += ' ' + std::to_string(pick());
    }
    if (rng.uniform() < kh_share) line += " kind=kh";
    lines.push_back(std::move(line));
  }
  return lines;
}

std::vector<Edge> absent_edges(const CsrGraph& g, std::uint64_t count, SplitMix64& rng) {
  const VertexId n = g.num_vertices();
  std::set<std::pair<VertexId, VertexId>> chosen;
  std::vector<Edge> edges;
  while (edges.size() < count) {
    VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n));
    if (u == v || g.has_edge(u, v)) continue;
    if (u > v) std::swap(u, v);
    if (!chosen.insert({u, v}).second) continue;
    edges.emplace_back(u, v);
  }
  return edges;
}

int cmd_prepare(const Flags& f) {
  const std::filesystem::path dir = flag(f, "out-dir");
  engine::Engine eng = engine::Engine::from_snapshot(flag(f, "snapshot"));
  const io::Snapshot& snap = *eng.snapshot();
  const CsrGraph* sym = snap.graph_for(/*degree_oriented=*/false);
  if (sym == nullptr) throw std::runtime_error("the snapshot carries no symmetric graph");
  SplitMix64 rng{flag_u64(f, "seed") ^ 0x7265717565737473ULL};

  write_lines(dir / "first.txt", {reply_for(eng, flag(f, "first"))});
  const std::vector<std::string> requests =
      make_requests(*sym, kRequests, flag_double(f, "kh-share"), rng);
  write_lines(dir / "requests.txt", requests);
  write_lines(dir / "expected.txt", replies_for(eng, requests));

  live::DeltaBatch batch;
  batch.inserts = absent_edges(*sym, kLiveEdges, rng);
  std::vector<std::string> edge_lines;
  for (const Edge& e : batch.inserts) {
    edge_lines.push_back(std::to_string(e.first) + ' ' + std::to_string(e.second));
  }
  write_lines(dir / "edges.txt", edge_lines);
  const std::string mod_path = dir / "mod.pgs";
  {
    const live::UpdatedSnapshot up = live::apply_batch(snap, batch);
    io::save_snapshot(mod_path, up.substrates);
  }
  engine::Engine mod = engine::Engine::from_snapshot(mod_path);
  write_lines(dir / "expected_mod.txt", replies_for(mod, requests));
  // The writer's probe: |N(u) ∪ N(v)| over the first inserted edges; both
  // degrees grow with the edge, so the reply tells the two states apart.
  std::string probe = "pair total";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, batch.inserts.size()); ++i) {
    probe += ' ' + std::to_string(batch.inserts[i].first) + ' ' +
             std::to_string(batch.inserts[i].second);
  }
  const std::string probe_base = reply_for(eng, probe);
  const std::string probe_mod = reply_for(mod, probe);
  if (probe_base == probe_mod) throw std::runtime_error("the probe does not see the update");
  write_lines(dir / "probe.txt", {probe, probe_base, probe_mod});
  std::filesystem::remove(mod_path);

  // The exact mining replies, from the algorithms entry points directly.
  engine::QueryResult tc;
  tc.name = "tc";
  tc.value = static_cast<double>(algo::triangle_count_exact(*sym));
  engine::QueryResult c4;
  c4.name = "4cc";
  c4.value = static_cast<double>(algo::four_clique_count_exact(*sym));
  const algo::ClusteringResult jp =
      algo::jarvis_patrick_exact(*sym, algo::SimilarityMeasure::kJaccard, 0.1);
  engine::QueryResult cl;
  cl.name = "cluster";
  cl.cluster = engine::ClusterInfo{jp.num_clusters, jp.kept_edges};
  write_lines(dir / "exact.txt",
              {engine::format_reply(tc), engine::format_reply(c4), engine::format_reply(cl)});

  std::printf("{\"n\": %u, \"m\": %llu, \"requests\": %zu}\n", sym->num_vertices(),
              static_cast<unsigned long long>(sym->num_edges()), requests.size());
  return 0;
}

// ---------------------------------------------------------------------------

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

int cmd_selftest() {
  const std::string want = "ok\tpair\t1:2=3";
  expect(check_reply(std::string(want), want) == Verdict::kOk, "equal reply is ok");
  expect(check_reply(std::string("ok\tpair\t1:2=4"), want) == Verdict::kWrong,
         "corrupted reply is wrong");
  expect(check_reply(std::string("ok\tpair\t1:2=3 "), want) == Verdict::kWrong,
         "trailing byte is wrong");
  expect(check_reply(std::string("err\tvertex 9 out of range"), want) == Verdict::kErr,
         "err reply is err");
  expect(check_reply(std::nullopt, want) == Verdict::kMissing, "no reply is missing");
  expect(check_reply(std::string("ok\tpair\t1:2=5"), want, std::string_view("ok\tpair\t1:2=5")) ==
             Verdict::kOk,
         "the alternative graph state is ok");
  Tally t;
  for (const Verdict v : {Verdict::kOk, Verdict::kErr, Verdict::kWrong, Verdict::kMissing}) t.add(v);
  expect(t.attempted == 4 && t.ok == 1 && t.err == 1 && t.wrong == 1 && t.missing == 1,
         "tally counts each verdict");
  std::printf("{\"selftest_failures\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

}  // namespace pgbench

int main(int argc, char** argv) {
  using namespace pgbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: pgbench gen|prepare|load|trace|selftest [--flag value]...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Flags flags = parse_flags(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "prepare") return cmd_prepare(flags);
    if (cmd == "load") return cmd_load(flags);
    if (cmd == "trace") return cmd_trace(flags);
    if (cmd == "selftest") return cmd_selftest();
    std::fprintf(stderr, "pgbench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgbench: error: %s\n", e.what());
    return 1;
  }
}
