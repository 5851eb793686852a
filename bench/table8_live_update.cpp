// Live-update serving: reseal latency and query latency during reseals.
//
// The live layer (src/live/ + engine/generation.hpp) promises two things:
// a reseal is cheap enough to run while serving (incremental sketch
// patches, not a cold rebuild), and the query hot path stays lock-free
// through the generation swap (readers pin via atomics, never a mutex).
// This bench quantifies both on a kron:12:8 snapshot:
//
//   * pin overhead      — the same pair estimate through a Reader::Pin vs
//     straight at the Engine; the delta IS the per-query cost of living
//     behind the epoch-swap protocol;
//   * reseal latency    — stage a batch of B edge inserts, seal, then
//     stage the same B as deletes and seal back, for B in {1, 64, 1024}.
//     Each seal applies the batch to a shadow copy, saves a .pgs
//     generation, maps it, swaps, and drains readers — the full write
//     path a `update seal` client waits on;
//   * queries vs reseals — one session runs pair estimates while a writer
//     loops stage+seal; per-query latencies are sampled and reported as
//     p50/p99 next to the same session on a quiescent engine. The p99 gap
//     is what a reseal costs the readers (swap-fence stalls, cache churn
//     from the new mapping), which the epoch-swap design keeps bounded —
//     readers never block on the writer's apply/save/load work.
//
// Usage: table8_live_update [--json[=FILE]]
// --json emits the rows in the table6-style report shape (context +
// benchmarks[{name, us_per_query}]) that the CI bench-smoke job archives.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/prob_graph.hpp"
#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/query.hpp"
#include "graph/generators.hpp"
#include "io/snapshot.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace pb = probgraph;
namespace eng = pb::engine;

namespace {

/// Machine-readable mirror of the printed rows (table6's report shape).
struct JsonReport {
  bool enabled = false;
  std::string file;  // empty = stdout
  std::vector<std::pair<std::string, double>> rows;  // name -> us

  void add(const std::string& name, double us) {
    if (enabled) rows.emplace_back(name, us);
  }

  void emit(const std::string& snapshot, pb::VertexId n) const {
    if (!enabled) return;
    std::FILE* out = file.empty() ? stdout : std::fopen(file.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for the JSON report\n", file.c_str());
      return;
    }
    std::fprintf(out,
                 "{\n  \"context\": {\n    \"snapshot\": \"%s\",\n"
                 "    \"num_vertices\": %u\n  },\n  \"benchmarks\": [\n",
                 snapshot.c_str(), n);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out, "    {\"name\": \"%s\", \"us_per_query\": %.4f}%s\n",
                   rows[i].first.c_str(), rows[i].second,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (!file.empty()) std::fclose(out);
  }
};

/// Deterministic edge batches that are almost surely absent from the kron
/// graph (random pairs in a 4096-vertex graph of ~16 avg degree), so an
/// insert batch does real sketch-patch work and the paired delete batch
/// restores the edge set for the next round.
std::vector<pb::Edge> make_batch(std::size_t count, pb::VertexId n,
                                 std::uint64_t salt) {
  std::vector<pb::Edge> edges;
  edges.reserve(count);
  std::uint64_t x = 0x9e3779b97f4a7c15ull ^ salt;
  while (edges.size() < count) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto u = static_cast<pb::VertexId>((x >> 33) % n);
    const auto v = static_cast<pb::VertexId>((x >> 13) % n);
    if (u != v) edges.push_back({u, v});
  }
  return edges;
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

/// Run `count` pair estimates through a pinned reader, sampling each
/// query's latency. This is exactly a live session's query hot path minus
/// the protocol parse/format.
std::vector<double> sample_pinned_queries(eng::LiveEngine& live,
                                          const eng::Query& query, int count) {
  eng::LiveEngine::Reader reader(live);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    pb::util::Timer t;
    {
      eng::LiveEngine::Reader::Pin pin(reader);
      (void)pin.engine().run(query);
    }
    us.push_back(t.seconds() * 1e6);
  }
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json.enabled = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json.enabled = true;
      json.file = arg.substr(7);
    }
  }

  // The reseal path writes sibling .genN files and unlinks them as
  // generations retire, so the base snapshot lives in the temp dir.
  const std::string path =
      (std::filesystem::temp_directory_path() / "table8_live.tmp.pgs").string();
  pb::util::set_threads(1);  // reseals and queries race; keep kernels serial
  const pb::CsrGraph g = pb::gen::kronecker(12, 8.0, 7);
  {
    const pb::ProbGraph pg(g, pb::ProbGraphConfig{});
    pb::io::save_snapshot(path, pg);
  }

  eng::LiveEngine live(path);
  const pb::VertexId n = live.current_engine_unsynchronized().graph().num_vertices();
  std::printf("snapshot: %s — n=%u, serving as generation %llu\n", path.c_str(), n,
              static_cast<unsigned long long>(live.generation()));

  const eng::Query pair_query =
      eng::PairEstimate{eng::EstimateKind::kIntersection, {{0, 1}, {2, 3}}, false};

  // --- Pin overhead: the same query with and without the epoch protocol.
  constexpr int kPinIters = 20000;
  double direct_us, pinned_us;
  {
    eng::Engine& e = const_cast<eng::Engine&>(live.current_engine_unsynchronized());
    pb::util::Timer t;
    for (int i = 0; i < kPinIters; ++i) (void)e.run(pair_query);
    direct_us = t.seconds() / kPinIters * 1e6;
  }
  {
    eng::LiveEngine::Reader reader(live);
    pb::util::Timer t;
    for (int i = 0; i < kPinIters; ++i) {
      eng::LiveEngine::Reader::Pin pin(reader);
      (void)pin.engine().run(pair_query);
    }
    pinned_us = t.seconds() / kPinIters * 1e6;
  }
  json.add("pair_direct", direct_us);
  json.add("pair_pinned", pinned_us);

  std::printf("\n--- query hot path: generation pin overhead ---\n");
  std::printf("pair, straight at the Engine      %10.3f us/query\n", direct_us);
  std::printf("pair, through Reader::Pin         %10.3f us/query | pin delta %+.3f us\n",
              pinned_us, pinned_us - direct_us);

  // --- Reseal latency by batch size: insert B, seal; delete B, seal back.
  std::printf("\n--- reseal latency (stage + apply + save + map + swap + drain) ---\n");
  std::uint64_t salt = 1;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{64}, std::size_t{1024}}) {
    constexpr int kRounds = 4;
    double total_s = 0.0;
    pb::VertexId patched = 0;
    for (int r = 0; r < kRounds; ++r) {
      const std::vector<pb::Edge> edges = make_batch(batch, n, salt++);
      live.stage(/*tombstone=*/false, edges);
      pb::util::Timer t;
      const eng::LiveEngine::SealResult in = live.seal();
      total_s += t.seconds();
      patched += in.stats.vertices_patched;
      live.stage(/*tombstone=*/true, edges);
      pb::util::Timer t2;
      (void)live.seal();
      total_s += t2.seconds();
    }
    const double ms = total_s / (2 * kRounds) * 1e3;
    json.add("reseal_batch_" + std::to_string(batch), ms * 1e3);
    std::printf("batch of %4zu edges               %10.2f ms/reseal | ~%u vertices patched/insert\n",
                batch, ms, patched / kRounds);
  }

  // --- Query latency while a writer loops reseals, vs quiescent.
  constexpr int kSampled = 4000;
  std::vector<double> quiet = sample_pinned_queries(live, pair_query, kSampled);

  std::atomic<bool> stop{false};
  std::atomic<int> reseals{0};
  std::thread writer([&] {
    std::uint64_t wsalt = 0xbeef;
    while (!stop.load()) {
      const std::vector<pb::Edge> edges = make_batch(64, n, wsalt++);
      live.stage(false, edges);
      if (live.seal().sealed) reseals.fetch_add(1);
      live.stage(true, edges);
      if (live.seal().sealed) reseals.fetch_add(1);
    }
  });
  std::vector<double> busy = sample_pinned_queries(live, pair_query, kSampled);
  stop.store(true);
  writer.join();

  const double quiet_p50 = percentile(quiet, 0.50), quiet_p99 = percentile(quiet, 0.99);
  const double busy_p50 = percentile(busy, 0.50), busy_p99 = percentile(busy, 0.99);
  json.add("pair_quiescent_p50", quiet_p50);
  json.add("pair_quiescent_p99", quiet_p99);
  json.add("pair_during_reseal_p50", busy_p50);
  json.add("pair_during_reseal_p99", busy_p99);

  std::printf("\n--- query latency during reseals (%d swaps raced %d queries) ---\n",
              reseals.load(), kSampled);
  std::printf("quiescent        p50 %10.3f us | p99 %10.3f us\n", quiet_p50, quiet_p99);
  std::printf("during reseals   p50 %10.3f us | p99 %10.3f us\n", busy_p50, busy_p99);
  std::printf("Readers never block on the writer's apply/save/load; the p99 gap is\n"
              "the swap itself (seq_cst fences + first touches of the new mapping).\n"
              "Final generation: %llu.\n",
              static_cast<unsigned long long>(live.generation()));

  json.emit(path, n);

  std::error_code ec;
  std::filesystem::remove(path, ec);
  return 0;
}
