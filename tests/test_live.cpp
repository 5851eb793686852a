// The live-update subsystem: delta log, incremental sketch maintenance,
// batch application, and the LiveEngine epoch swap.
//
// The load-bearing assertions are BIT-IDENTITY ones: after any update, the
// resealed substrates — arenas, derived parameters, served estimates —
// must equal what a cold build of the updated edge list produces, for all
// four sketch kinds in both orientations (the apply layer's acceptance
// bar, src/live/apply.hpp). Estimates are bitwise deterministic only at
// one OpenMP thread, so the suite pins util::set_threads(1) like
// tests/test_engine.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "core/prob_graph.hpp"
#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/orientation.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "live/delta.hpp"
#include "obs/metrics.hpp"
#include "serve_helpers.hpp"
#include "util/threading.hpp"

namespace probgraph {
namespace {

class PinThreads : public ::testing::Environment {
 public:
  void SetUp() override { util::set_threads(1); }
};
const auto* const kPin =
    ::testing::AddGlobalTestEnvironment(new PinThreads);  // NOLINT(cert-err58-cpp)

std::string data_path(const char* name) {
  return std::string(PROBGRAPH_TEST_DATA_DIR) + "/" + name;
}

/// A unique scratch path under the build tree, removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& suffix) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "probgraph_live_" + std::to_string(++counter) +
            suffix;
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The golden 32-vertex circulant graph's edges (chords 1, 2, 5).
std::vector<Edge> golden_edges() {
  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  std::vector<Edge> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

/// The updated edge set: base ∪ inserts − deletes (normalized u < v).
std::vector<Edge> edit_edges(std::vector<Edge> edges, const live::DeltaBatch& batch) {
  const auto norm = [](Edge e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  std::set<Edge> set;
  for (const Edge& e : edges) set.insert(norm(e));
  for (const Edge& e : batch.inserts) {
    if (e.first != e.second) set.insert(norm(e));
  }
  for (const Edge& e : batch.deletes) set.erase(norm(e));
  return {set.begin(), set.end()};
}

/// Every arena byte plus the derived parameters and stored config of two
/// substrates must agree.
void expect_bit_identical(const ProbGraph& got, const ProbGraph& want,
                          const std::string& what) {
  ASSERT_EQ(got.kind(), want.kind()) << what;
  EXPECT_EQ(sketch_params_of(got), sketch_params_of(want)) << what;
  EXPECT_EQ(got.config().seed, want.config().seed) << what;
  const auto eq_span = [&](const auto& a, const auto& b, const char* arena) {
    ASSERT_EQ(a.size(), b.size()) << what << " " << arena << " size";
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << what << " " << arena << "[" << i << "]";
    }
  };
  eq_span(got.bf_arena(), want.bf_arena(), "bf");
  eq_span(got.kh_arena(), want.kh_arena(), "kh");
  eq_span(got.kmv_arena(), want.kmv_arena(), "kmv");
  eq_span(got.sketch_sizes(), want.sketch_sizes(), "sizes");
  const auto oh_got = got.oh_arena();
  const auto oh_want = want.oh_arena();
  ASSERT_EQ(oh_got.size(), oh_want.size()) << what << " oh size";
  for (std::size_t i = 0; i < oh_got.size(); ++i) {
    ASSERT_EQ(oh_got[i].hash, oh_want[i].hash) << what << " oh[" << i << "]";
    ASSERT_EQ(oh_got[i].element, oh_want[i].element) << what << " oh[" << i << "]";
  }
}

// --- Delta log. ---

TEST(DeltaLog, RoundTripAndAppend) {
  TempPath path(".pgd");
  const live::DeltaBatch b1{{{0, 9}, {3, 17}}, {{0, 1}}};
  const live::DeltaBatch b2{{{5, 6}}, {}};
  {
    live::DeltaLogWriter writer(path.str());
    writer.append(b1);
    writer.append({});  // empty batches are not recorded
  }
  {
    // Reopening validates the header and appends after the last record.
    live::DeltaLogWriter writer(path.str());
    writer.append(b2);
  }
  const std::vector<live::DeltaBatch> read = live::read_delta_log(path.str());
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0].inserts, b1.inserts);
  EXPECT_EQ(read[0].deletes, b1.deletes);
  EXPECT_EQ(read[1].inserts, b2.inserts);
  EXPECT_TRUE(read[1].deletes.empty());
}

TEST(DeltaLog, CorruptionAndForeignFilesRejected) {
  TempPath path(".pgd");
  {
    live::DeltaLogWriter writer(path.str());
    writer.append({{{0, 9}}, {}});
  }
  // Flip one endpoint byte: the batch checksum must catch it.
  {
    std::fstream f(path.str(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  EXPECT_THROW((void)live::read_delta_log(path.str()), std::runtime_error);

  // A truncated record (half an endpoint missing) is rejected too.
  {
    std::remove(path.str().c_str());
    live::DeltaLogWriter writer(path.str());
    writer.append({{{0, 9}}, {}});
  }
  std::ifstream in(path.str(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path.str(), std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  EXPECT_THROW((void)live::read_delta_log(path.str()), std::runtime_error);

  // A foreign file never opens as a log — neither for reading nor append.
  std::ofstream(path.str(), std::ios::binary | std::ios::trunc)
      << "not a delta log at all";
  EXPECT_THROW((void)live::read_delta_log(path.str()), std::runtime_error);
  EXPECT_THROW(live::DeltaLogWriter{path.str()}, std::runtime_error);
}

// --- Incremental sketch maintenance. ---

TEST(Incremental, DerivedParamsMatchColdConstructor) {
  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash,
                                SketchKind::kOneHash, SketchKind::kKmv}) {
    ProbGraphConfig cfg;
    cfg.kind = kind;
    const ProbGraph pg(g, cfg);
    EXPECT_EQ(derive_sketch_params(cfg, g.num_vertices(), g.memory_bytes()),
              sketch_params_of(pg))
        << to_string(kind);
  }
}

TEST(Incremental, ApplyInsertReplicatesColdBuildPerKind) {
  // Fold golden's edges into updaters seeded from a cold build over a
  // PREFIX graph (same vertex set, two-thirds of the edges): the patched
  // arenas must be bit-identical to a cold build of the full graph.
  // Explicit bf_bits/minhash_k keep the derived parameters independent of
  // the edge count, which is the incremental path's precondition.
  const std::vector<Edge> all = golden_edges();
  const std::vector<Edge> prefix(all.begin(), all.begin() + 2 * all.size() / 3);
  const CsrGraph g_old = GraphBuilder::from_edges(prefix, 32);
  const CsrGraph g_new = GraphBuilder::from_edges(all, 32);

  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash,
                                SketchKind::kOneHash, SketchKind::kKmv}) {
    ProbGraphConfig cfg;
    cfg.kind = kind;
    cfg.bf_bits = 256;
    cfg.minhash_k = 6;
    const ProbGraph base(g_old, cfg);
    const ProbGraph cold(g_new, cfg);
    ASSERT_EQ(sketch_params_of(base), sketch_params_of(cold)) << to_string(kind);

    SketchUpdater up(base, g_new.num_vertices());
    for (VertexId v = 0; v < g_new.num_vertices(); ++v) {
      // Per-vertex diff: old and new adjacency are sorted; fold only the
      // genuinely new neighbors.
      const auto old_n = g_old.neighbors(v);
      const auto new_n = g_new.neighbors(v);
      std::size_t i = 0;
      for (const VertexId x : new_n) {
        if (i < old_n.size() && old_n[i] == x) {
          ++i;
        } else {
          up.apply_insert(v, x);
        }
      }
      ASSERT_EQ(i, old_n.size()) << "old adjacency not a subset at v=" << v;
    }
    const ProbGraph patched = std::move(up).seal(g_new, cfg, 0.0);
    expect_bit_identical(patched, cold, std::string("patched ") + to_string(kind));
  }
}

TEST(Incremental, RebuildVertexReplicatesColdBuildPerKind) {
  // The churn fallback: reset + re-fold EVERY vertex from the new
  // adjacency must also land exactly on the cold build (this is the path
  // deletions and DAG arc flips take).
  const std::vector<Edge> all = golden_edges();
  std::vector<Edge> edited(all.begin(), all.end() - 4);  // drop 4 edges
  edited.push_back({0, 9});
  const CsrGraph g_old = GraphBuilder::from_edges(all, 32);
  const CsrGraph g_new = GraphBuilder::from_edges(edited, 32);

  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash,
                                SketchKind::kOneHash, SketchKind::kKmv}) {
    ProbGraphConfig cfg;
    cfg.kind = kind;
    cfg.bf_bits = 192;
    cfg.minhash_k = 5;
    const ProbGraph base(g_old, cfg);
    const ProbGraph cold(g_new, cfg);

    SketchUpdater up(base, g_new.num_vertices());
    for (VertexId v = 0; v < g_new.num_vertices(); ++v) {
      up.rebuild_vertex(v, g_new.neighbors(v));
    }
    const ProbGraph rebuilt = std::move(up).seal(g_new, cfg, 0.0);
    expect_bit_identical(rebuilt, cold, std::string("rebuilt ") + to_string(kind));
  }
}

// --- apply_batch: the full-portfolio reseal. ---

/// Build the 4-kind × both-orientations golden snapshot at `path`.
void build_full_snapshot(const std::string& path) {
  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  const std::vector<SketchKind> kinds{SketchKind::kBloomFilter, SketchKind::kKHash,
                                      SketchKind::kOneHash,
                                      SketchKind::kKmv};
  const io::SubstrateSet set =
      io::build_substrates(g, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
  io::save_snapshot(path, set.substrates);
}

/// The acceptance comparison: every substrate apply_batch produced must be
/// bit-identical to a cold build_substrates over the updated edge list.
void expect_apply_matches_cold(const live::UpdatedSnapshot& updated,
                               const std::vector<Edge>& new_edges, VertexId new_n) {
  const CsrGraph cold_g = GraphBuilder::from_edges(new_edges, new_n);
  const std::vector<SketchKind> kinds{SketchKind::kBloomFilter, SketchKind::kKHash,
                                      SketchKind::kOneHash,
                                      SketchKind::kKmv};
  const io::SubstrateSet cold = io::build_substrates(
      cold_g, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
  ASSERT_EQ(updated.substrates.size(), cold.substrates.size());
  for (std::size_t i = 0; i < cold.substrates.size(); ++i) {
    const io::SnapshotSubstrate& want = cold.substrates[i];
    // The applied portfolio keeps the FILE's substrate order; find the
    // matching cold substrate by (kind, orientation).
    const io::SnapshotSubstrate* got = nullptr;
    for (const io::SnapshotSubstrate& s : updated.substrates) {
      if (s.pg->kind() == want.pg->kind() &&
          s.degree_oriented == want.degree_oriented) {
        got = &s;
      }
    }
    ASSERT_NE(got, nullptr);
    expect_bit_identical(*got->pg, *want.pg,
                         std::string(to_string(want.pg->kind())) +
                             (want.degree_oriented ? "/dag" : "/sym"));
  }
}

TEST(ApplyBatch, AllKindsBothOrientationsBitIdenticalToColdBuild) {
  TempPath snap_path(".pgs");
  build_full_snapshot(snap_path.str());
  const io::Snapshot snap = io::load_snapshot(snap_path.str());

  // Inserts, deletes, a duplicate, unordered endpoints, a self-loop, and a
  // same-batch insert+delete (the delete wins) — the whole normalization
  // contract in one batch.
  live::DeltaBatch batch;
  batch.inserts = {{0, 9}, {9, 0}, {17, 3}, {4, 4}, {6, 9}, {7, 10}};
  batch.deletes = {{1, 0}, {7, 10}, {20, 24}};  // (20,24) was never present
  const live::UpdatedSnapshot updated = live::apply_batch(snap, batch);

  EXPECT_EQ(updated.stats.inserts_applied, 3u);  // (0,9) (3,17) (6,9)
  EXPECT_EQ(updated.stats.deletes_applied, 1u);  // (0,1)
  EXPECT_EQ(updated.stats.substrates_rebuilt, 0u);
  EXPECT_GT(updated.stats.vertices_patched + updated.stats.vertices_rebuilt, 0u);

  const std::vector<Edge> new_edges = edit_edges(golden_edges(), batch);
  EXPECT_EQ(updated.stats.num_edges, new_edges.size());
  expect_apply_matches_cold(updated, new_edges, 32);
}

TEST(ApplyBatch, InsertsGrowTheVertexSet) {
  TempPath snap_path(".pgs");
  build_full_snapshot(snap_path.str());
  const io::Snapshot snap = io::load_snapshot(snap_path.str());

  live::DeltaBatch batch;
  batch.inserts = {{0, 40}, {40, 41}};  // two vertices past n=32
  const live::UpdatedSnapshot updated = live::apply_batch(snap, batch);
  EXPECT_EQ(updated.stats.num_vertices, 42u);
  EXPECT_EQ(updated.sym->num_vertices(), 42u);

  expect_apply_matches_cold(updated, edit_edges(golden_edges(), batch), 42);
}

TEST(ApplyBatch, MaxVertexIdIsRejected) {
  // VertexId's max has no vertex count: the new count must not wrap to 0.
  TempPath snap_path(".pgs");
  build_full_snapshot(snap_path.str());
  const io::Snapshot snap = io::load_snapshot(snap_path.str());

  live::DeltaBatch batch;
  batch.inserts = {{std::numeric_limits<VertexId>::max(), 1}};
  EXPECT_THROW((void)live::apply_batch(snap, batch), std::invalid_argument);
}

TEST(ApplyBatch, ParameterShiftFallsBackColdAndStaysIdentical) {
  // Densify to the complete graph (~5.6× the edges): the budget-derived
  // parameters track the sym CSR bytes, so they shift past their rounding
  // granularity, the incremental precondition fails, and every substrate
  // takes the cold-fallback path — which must STILL match the cold build
  // exactly.
  TempPath snap_path(".pgs");
  build_full_snapshot(snap_path.str());
  const io::Snapshot snap = io::load_snapshot(snap_path.str());

  live::DeltaBatch batch;
  for (VertexId u = 0; u < 32; ++u) {
    for (VertexId v = u + 1; v < 32; ++v) batch.inserts.push_back({u, v});
  }
  const live::UpdatedSnapshot updated = live::apply_batch(snap, batch);
  EXPECT_GT(updated.stats.substrates_rebuilt, 0u);
  expect_apply_matches_cold(updated, edit_edges(golden_edges(), batch), 32);
}

TEST(ApplyBatch, ResealedFileRoundTripsThroughSaveLoad) {
  // The generation pipeline: apply → save → load must serve the same
  // estimates as a cold-built-and-saved snapshot of the updated graph.
  TempPath snap_path(".pgs");
  TempPath sealed_path(".pgs");
  TempPath cold_path(".pgs");
  build_full_snapshot(snap_path.str());
  const io::Snapshot snap = io::load_snapshot(snap_path.str());

  live::DeltaBatch batch{{{0, 9}, {3, 17}}, {{0, 1}}};
  const live::UpdatedSnapshot updated = live::apply_batch(snap, batch);
  io::save_snapshot(sealed_path.str(), updated.substrates);

  const std::vector<Edge> new_edges = edit_edges(golden_edges(), batch);
  const CsrGraph cold_g = GraphBuilder::from_edges(new_edges, 32);
  const std::vector<SketchKind> kinds{SketchKind::kBloomFilter, SketchKind::kKHash,
                                      SketchKind::kOneHash,
                                      SketchKind::kKmv};
  const io::SubstrateSet cold = io::build_substrates(
      cold_g, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
  io::save_snapshot(cold_path.str(), cold.substrates);

  // Byte-identical protocol transcripts across every kind and both
  // orientations — the full serving surface.
  const std::string script =
      "tc\ntc kind=kmv\ntc kind=kh\ntc kind=1h\n4cc\ncc\ncc kind=kmv\n"
      "cc kind=kh\ncc kind=1h\ncluster jaccard 0.1\npair jaccard 0 9 3 17\n"
      "lp 5 common\nstats\nquit\n";
  const auto transcript_of = [&](const std::string& path) {
    engine::Engine e = engine::Engine::from_snapshot(path);
    return serve_test::replay(e, script).replies;
  };
  const std::string sealed_replies = transcript_of(sealed_path.str());
  EXPECT_EQ(sealed_replies, transcript_of(cold_path.str()));
  EXPECT_EQ(sealed_replies.rfind("ok\ttc\t", 0), 0u) << sealed_replies;
}

// --- LiveEngine: the epoch swap. ---

TEST(LiveEngine, SealSwapsGenerationsAndCachesCannotServeStale) {
  TempPath snap_path(".pgs");
  TempPath log_path(".pgd");
  build_full_snapshot(snap_path.str());

  engine::LiveEngine::Options opts;
  opts.delta_log_path = log_path.str();
  engine::LiveEngine live(snap_path.str(), opts);
  EXPECT_EQ(live.generation(), 1u);

  const std::string script =
      "tc\ntc kind=kmv\ncc\ncc kind=kh\npair jaccard 0 9\nquit\n";
  const auto serve_script = [&] { return serve_test::replay(live, script).replies; };

  // Pre-swap replies pin generation 1 — the state a seal that failed to
  // swap every substrate would keep serving.
  const std::string before = serve_script();

  live.stage(/*tombstone=*/false, std::vector<Edge>{{0, 9}, {3, 17}});
  live.stage(/*tombstone=*/true, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(live.pending().inserts, 2u);
  EXPECT_EQ(live.pending().deletes, 1u);
  const engine::LiveEngine::SealResult sealed = live.seal();
  ASSERT_TRUE(sealed.sealed);
  EXPECT_EQ(sealed.generation, 2u);
  EXPECT_EQ(live.generation(), 2u);
  EXPECT_EQ(live.pending().inserts, 0u);
  EXPECT_EQ(live.pending().deletes, 0u);

  // Post-swap replies must be the UPDATED graph's — byte-identical to a
  // cold build served fresh, and different from the pre-swap ones.
  TempPath cold_path(".pgs");
  const live::DeltaBatch batch{{{0, 9}, {3, 17}}, {{0, 1}}};
  const CsrGraph cold_g = GraphBuilder::from_edges(edit_edges(golden_edges(), batch), 32);
  const std::vector<SketchKind> kinds{SketchKind::kBloomFilter, SketchKind::kKHash,
                                      SketchKind::kOneHash,
                                      SketchKind::kKmv};
  const io::SubstrateSet cold = io::build_substrates(
      cold_g, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
  io::save_snapshot(cold_path.str(), cold.substrates);
  engine::Engine cold_engine = engine::Engine::from_snapshot(cold_path.str());

  const std::string after = serve_script();
  EXPECT_EQ(after, serve_test::replay(cold_engine, script).replies);
  EXPECT_NE(after, before);

  // A second seal with nothing staged is a no-op.
  EXPECT_FALSE(live.seal().sealed);
  EXPECT_EQ(live.generation(), 2u);

  // The sealed batch was logged; replaying it reproduces the generation.
  const std::vector<live::DeltaBatch> log = live::read_delta_log(log_path.str());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].inserts, batch.inserts);
  EXPECT_EQ(log[0].deletes, batch.deletes);
}

TEST(LiveEngine, SealRecordsObservabilityInstruments) {
  TempPath snap_path(".pgs");
  build_full_snapshot(snap_path.str());

  auto& reg = obs::Registry::global();
  const obs::Counter* ins_before =
      reg.find_counter("probgraph_updates_applied_total", {{"op", "insert"}});
  const obs::Counter* del_before =
      reg.find_counter("probgraph_updates_applied_total", {{"op", "delete"}});
  const std::uint64_t ins0 = ins_before == nullptr ? 0 : ins_before->value();
  const std::uint64_t del0 = del_before == nullptr ? 0 : del_before->value();

  engine::LiveEngine live(snap_path.str());
  live.stage(/*tombstone=*/false, std::vector<Edge>{{0, 9}, {3, 17}});
  live.stage(/*tombstone=*/true, std::vector<Edge>{{0, 1}});
  ASSERT_TRUE(live.seal().sealed);

  EXPECT_EQ(reg.gauge("probgraph_generation", "").value(), 2.0);
  EXPECT_EQ(reg.find_counter("probgraph_updates_applied_total", {{"op", "insert"}})
                    ->value() -
                ins0,
            2u);
  EXPECT_EQ(reg.find_counter("probgraph_updates_applied_total", {{"op", "delete"}})
                    ->value() -
                del0,
            1u);
}

}  // namespace
}  // namespace probgraph
