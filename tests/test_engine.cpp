// The query-engine layer (src/engine/).
//
// Three guarantees under test:
//   1. Equivalence: every Query variant executed by an Engine returns
//      results BIT-IDENTICAL to the pre-engine free-function pipeline it
//      replaced (same sketches, same algorithm calls), over both in-memory
//      graphs and snapshots — the acceptance bar of the API redesign.
//   2. Robustness: malformed serve-protocol lines and unanswerable queries
//      produce "err" replies and keep the session alive — never a crash.
//   3. Transcript stability: the checked-in scripted session
//      (tests/data/serve_session.txt) replayed over the golden snapshot
//      reproduces tests/data/serve_session.expected byte for byte — the
//      same fixture the CI smoke step pipes through a real `pgtool serve`
//      process.
//
// The double-reduction kernels (TC, 4CC, kclique, cc) use
// schedule(dynamic), so bitwise determinism across invocations needs a
// fixed thread count: the suite pins OpenMP to one thread.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/clustering_coefficient.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/triangle_count.hpp"
#include "algorithms/vertex_similarity.hpp"
#include "engine/protocol.hpp"
#include "graph/io.hpp"
#include "graph/orientation.hpp"
#include "io/snapshot.hpp"
#include "serve_helpers.hpp"
#include "util/threading.hpp"

namespace probgraph {
namespace {

namespace fs = std::filesystem;

class PinThreads : public ::testing::Environment {
 public:
  void SetUp() override { util::set_threads(1); }
};
const auto* const kPin =
    ::testing::AddGlobalTestEnvironment(new PinThreads);  // NOLINT(cert-err58-cpp)

std::string data_path(const char* name) {
  return std::string(PROBGRAPH_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Self-deleting temp file path, unique per test.
struct TempFile {
  explicit TempFile(const std::string& tag)
      : path((fs::temp_directory_path() / ("probgraph_test_" + tag + ".pgs")).string()) {}
  ~TempFile() { std::error_code ec; fs::remove(path, ec); }
  std::string path;
};

CsrGraph golden_graph() { return io::read_edge_list(data_path("golden.el")); }

/// The pre-engine counting pipeline: sketches over the degree-oriented DAG
/// with the budget referenced to G's CSR (what pgtool has always done).
struct LegacyCounting {
  explicit LegacyCounting(const CsrGraph& g, ProbGraphConfig cfg = {})
      : dag(degree_orient(g)) {
    cfg.budget_reference_bytes = g.memory_bytes();
    pg.emplace(dag, cfg);
  }
  CsrGraph dag;
  std::optional<ProbGraph> pg;
};

// --- 1. Equivalence with the pre-engine free functions. ---

TEST(EngineEquivalence, TriangleCount) {
  const CsrGraph g = golden_graph();
  const LegacyCounting legacy(g);
  engine::Engine e(golden_graph());
  const auto r = e.run(engine::TriangleCount{});
  EXPECT_EQ(r.value, algo::triangle_count_probgraph(*legacy.pg));
  EXPECT_STREQ(r.name, "tc");
  EXPECT_TRUE(r.sketch.used);
  EXPECT_TRUE(r.sketch.degree_oriented);

  const auto rx = e.run(engine::TriangleCount{.exact = true});
  EXPECT_EQ(rx.value, static_cast<double>(algo::triangle_count_exact(g)));
  EXPECT_TRUE(rx.exact);
  EXPECT_FALSE(rx.sketch.used);
}

TEST(EngineEquivalence, FourCliqueCount) {
  const CsrGraph g = golden_graph();
  const LegacyCounting legacy(g);
  engine::Engine e(golden_graph());
  EXPECT_EQ(e.run(engine::FourCliqueCount{}).value,
            algo::four_clique_count_probgraph(*legacy.pg));
  EXPECT_EQ(e.run(engine::FourCliqueCount{.exact = true}).value,
            static_cast<double>(algo::four_clique_count_exact(g)));
}

TEST(EngineEquivalence, KCliqueCount) {
  const CsrGraph g = golden_graph();
  const LegacyCounting legacy(g);
  engine::Engine e(golden_graph());
  EXPECT_EQ(e.run(engine::KCliqueCount{.k = 4}).value,
            algo::kclique_count_probgraph(*legacy.pg, 4));
  EXPECT_EQ(e.run(engine::KCliqueCount{.k = 4, .exact = true}).value,
            static_cast<double>(algo::kclique_count_exact(g, 4)));
}

TEST(EngineEquivalence, ClusteringCoeff) {
  const CsrGraph g = golden_graph();
  const ProbGraph pg(g, ProbGraphConfig{});
  engine::Engine e(golden_graph());
  const double tc = algo::triangle_count_probgraph(pg, algo::TcMode::kFull);
  EXPECT_EQ(e.run(engine::ClusteringCoeff{}).value,
            algo::global_clustering_coefficient(g, tc));
  const double tc_exact = static_cast<double>(algo::triangle_count_exact(g));
  EXPECT_EQ(e.run(engine::ClusteringCoeff{.exact = true}).value,
            algo::global_clustering_coefficient(g, tc_exact));
}

TEST(EngineEquivalence, Cluster) {
  const CsrGraph g = golden_graph();
  const ProbGraph pg(g, ProbGraphConfig{});
  engine::Engine e(golden_graph());
  const auto want =
      algo::jarvis_patrick_probgraph(pg, algo::SimilarityMeasure::kJaccard, 0.1);
  const auto r = e.run(engine::Cluster{algo::SimilarityMeasure::kJaccard, 0.1, false});
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_EQ(r.cluster->num_clusters, want.num_clusters);
  EXPECT_EQ(r.cluster->kept_edges, want.kept_edges);

  const auto want_x = algo::jarvis_patrick_exact(g, algo::SimilarityMeasure::kJaccard, 0.1);
  const auto rx = e.run(engine::Cluster{algo::SimilarityMeasure::kJaccard, 0.1, true});
  EXPECT_EQ(rx.cluster->num_clusters, want_x.num_clusters);
  EXPECT_EQ(rx.cluster->kept_edges, want_x.kept_edges);
}

TEST(EngineEquivalence, PairEstimateAllKindsMatchEstWrappers) {
  const CsrGraph g = golden_graph();
  const ProbGraph pg(g, ProbGraphConfig{});
  engine::Engine e(golden_graph());
  std::vector<engine::VertexPair> pairs;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) pairs.push_back({u, v});
  }
  for (const engine::EstimateKind kind :
       {engine::EstimateKind::kIntersection, engine::EstimateKind::kJaccard,
        engine::EstimateKind::kOverlap, engine::EstimateKind::kCommonNeighbors,
        engine::EstimateKind::kTotalNeighbors}) {
    const auto r = e.run(engine::PairEstimate{kind, pairs, false});
    ASSERT_EQ(r.pairs.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const VertexId u = pairs[i].u, v = pairs[i].v;
      double want = 0.0;
      switch (kind) {
        case engine::EstimateKind::kIntersection: want = pg.est_intersection(u, v); break;
        case engine::EstimateKind::kJaccard: want = pg.est_jaccard(u, v); break;
        case engine::EstimateKind::kOverlap: want = pg.est_overlap(u, v); break;
        case engine::EstimateKind::kCommonNeighbors:
          want = pg.est_common_neighbors(u, v);
          break;
        case engine::EstimateKind::kTotalNeighbors:
          want = pg.est_total_neighbors(u, v);
          break;
      }
      ASSERT_EQ(r.pairs[i].value, want)
          << to_string(kind) << " diverges at (" << u << ", " << v << ")";
    }
  }
}

TEST(EngineEquivalence, PairEstimateExact) {
  const CsrGraph g = golden_graph();
  engine::Engine e(golden_graph());
  const auto r = e.run(
      engine::PairEstimate{engine::EstimateKind::kJaccard, {{0, 1}, {2, 3}}, true});
  ASSERT_EQ(r.pairs.size(), 2u);
  EXPECT_EQ(r.pairs[0].value,
            algo::similarity_exact(g, 0, 1, algo::SimilarityMeasure::kJaccard));
  EXPECT_EQ(r.pairs[1].value,
            algo::similarity_exact(g, 2, 3, algo::SimilarityMeasure::kJaccard));
}

TEST(EngineEquivalence, LinkPredict) {
  const CsrGraph g = golden_graph();
  const ProbGraph pg(g, ProbGraphConfig{});
  engine::Engine e(golden_graph());
  const auto want =
      algo::top_k_links_probgraph(pg, algo::SimilarityMeasure::kCommonNeighbors, 5);
  const auto r =
      e.run(engine::LinkPredict{5, algo::SimilarityMeasure::kCommonNeighbors, false});
  ASSERT_EQ(r.pairs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.pairs[i].u, want[i].u);
    EXPECT_EQ(r.pairs[i].v, want[i].v);
    EXPECT_EQ(r.pairs[i].value, want[i].score);
  }
  // Deterministic ordering: score desc, ties by (u, v) asc, u < v everywhere.
  for (std::size_t i = 0; i < r.pairs.size(); ++i) {
    EXPECT_LT(r.pairs[i].u, r.pairs[i].v);
    if (i > 0) {
      EXPECT_TRUE(r.pairs[i - 1].value > r.pairs[i].value ||
                  (r.pairs[i - 1].value == r.pairs[i].value &&
                   (r.pairs[i - 1].u < r.pairs[i].u ||
                    (r.pairs[i - 1].u == r.pairs[i].u && r.pairs[i - 1].v < r.pairs[i].v))));
    }
  }
}

TEST(EngineEquivalence, LinkPredictExactFindsRemovedStructure) {
  const CsrGraph g = golden_graph();
  engine::Engine e(golden_graph());
  const auto want = algo::top_k_links_exact(g, algo::SimilarityMeasure::kJaccard, 3);
  const auto r = e.run(engine::LinkPredict{3, algo::SimilarityMeasure::kJaccard, true});
  ASSERT_EQ(r.pairs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.pairs[i].u, want[i].u);
    EXPECT_EQ(r.pairs[i].v, want[i].v);
    EXPECT_EQ(r.pairs[i].value, want[i].score);
  }
}

TEST(EngineEquivalence, GraphStats) {
  const CsrGraph g = golden_graph();
  engine::Engine e(golden_graph());
  const auto r = e.run(engine::GraphStats{});
  ASSERT_TRUE(r.stats.has_value());
  EXPECT_EQ(r.stats->num_vertices, g.num_vertices());
  EXPECT_EQ(r.stats->num_edges, g.num_edges());
  EXPECT_EQ(r.stats->num_directed_edges, g.num_directed_edges());
  EXPECT_EQ(r.stats->max_degree, g.max_degree());
  EXPECT_EQ(r.stats->avg_degree, g.avg_degree());
  EXPECT_EQ(r.stats->degree_moment2, g.degree_moment(2));
  EXPECT_EQ(r.stats->degree_moment3, g.degree_moment(3));
  EXPECT_EQ(r.stats->csr_bytes, g.memory_bytes());
  EXPECT_FALSE(r.stats->mapped);
  EXPECT_FALSE(r.sketch.used);
}

// --- Snapshot-backed engines. ---

TEST(EngineSnapshot, ServesGoldenPairEstimatesBitIdentical) {
  const CsrGraph g = golden_graph();
  const ProbGraph fresh(g, ProbGraphConfig{});
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  ASSERT_NE(e.snapshot_info(), nullptr);
  EXPECT_FALSE(e.source_oriented());

  std::vector<engine::VertexPair> pairs;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) pairs.push_back({u, v});
  }
  const auto r = e.run(engine::PairEstimate{engine::EstimateKind::kIntersection, pairs, false});
  ASSERT_EQ(r.pairs.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(r.pairs[i].value, fresh.est_intersection(pairs[i].u, pairs[i].v));
  }
  EXPECT_TRUE(r.sketch.mapped);
}

TEST(EngineSnapshot, SymmetricSnapshotTcUsesFullModeEstimator) {
  const CsrGraph g = golden_graph();
  const ProbGraph fresh(g, ProbGraphConfig{});
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const auto r = e.run(engine::TriangleCount{});
  EXPECT_EQ(r.value, algo::triangle_count_probgraph(fresh, algo::TcMode::kFull));
  EXPECT_FALSE(r.sketch.degree_oriented);
}

TEST(EngineSnapshot, SymmetricSnapshotRejectsOrientedEstimates) {
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  try {
    (void)e.run(engine::FourCliqueCount{});
    FAIL() << "expected 4cc over a symmetric snapshot to throw";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("--orient"), std::string::npos);
  }
}

TEST(EngineSnapshot, OrientedSnapshotCountsAndRejectsNeighborhoodQueries) {
  const CsrGraph g = golden_graph();
  const LegacyCounting legacy(g);
  TempFile file("engine_oriented");
  io::save_snapshot(file.path, *legacy.pg, {.degree_oriented = true});

  engine::Engine e = engine::Engine::from_snapshot(file.path);
  EXPECT_TRUE(e.source_oriented());
  EXPECT_EQ(e.run(engine::TriangleCount{}).value,
            algo::triangle_count_probgraph(*legacy.pg));
  EXPECT_EQ(e.run(engine::FourCliqueCount{}).value,
            algo::four_clique_count_probgraph(*legacy.pg));
  // Exact counting still works: the snapshot's graph IS the DAG.
  EXPECT_EQ(e.run(engine::TriangleCount{.exact = true}).value,
            static_cast<double>(algo::triangle_count_exact_oriented(legacy.dag)));
  EXPECT_THROW((void)e.run(engine::Cluster{}), std::runtime_error);
  EXPECT_THROW((void)e.run(engine::ClusteringCoeff{}), std::runtime_error);
  EXPECT_THROW((void)e.run(engine::LinkPredict{}), std::runtime_error);
  // Pair estimates are |N_u ∩ N_v| over full neighborhoods: a DAG sketch
  // answers a different question, so this must be an error, not an "ok".
  EXPECT_THROW(
      (void)e.run(engine::PairEstimate{engine::EstimateKind::kIntersection, {{0, 1}}, false}),
      std::runtime_error);
}

// --- Multi-substrate snapshots: per-query kind routing. ---
// golden_v2.pgs packs BF/sym (primary), BF/dag, KMV/sym, KMV/dag over the
// golden graph — one mapping, every query class, routed per engine.hpp.

TEST(EngineMultiSubstrate, RoutesTcToTheDagAndPairToTheSymmetricSubstrate) {
  const CsrGraph g = golden_graph();
  const LegacyCounting legacy_bf(g);
  const ProbGraph fresh_sym(g, ProbGraphConfig{});
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  EXPECT_FALSE(e.source_oriented());

  // tc defaults to the primary kind (BF) on the DAG substrate — the
  // oriented estimator, bit-identical to a single `--orient` build.
  const auto tc = e.run(engine::TriangleCount{});
  EXPECT_EQ(tc.value, algo::triangle_count_probgraph(*legacy_bf.pg));
  EXPECT_TRUE(tc.sketch.degree_oriented);
  EXPECT_EQ(tc.sketch.kind, SketchKind::kBloomFilter);
  EXPECT_TRUE(tc.sketch.mapped);

  // pair defaults to BF/sym — bit-identical to the unoriented build.
  const auto pair = e.run(
      engine::PairEstimate{engine::EstimateKind::kJaccard, {{0, 1}, {2, 3}}, false});
  EXPECT_EQ(pair.pairs[0].value, fresh_sym.est_jaccard(0, 1));
  EXPECT_EQ(pair.pairs[1].value, fresh_sym.est_jaccard(2, 3));
  EXPECT_FALSE(pair.sketch.degree_oriented);
}

TEST(EngineMultiSubstrate, ExplicitKindRoutesToThatSubstrate) {
  const CsrGraph g = golden_graph();
  ProbGraphConfig kmv_cfg;
  kmv_cfg.kind = SketchKind::kKmv;
  const ProbGraph fresh_kmv_sym(g, kmv_cfg);
  const LegacyCounting legacy_kmv(g, kmv_cfg);
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));

  const auto tc = e.run(engine::TriangleCount{.sketch = SketchKind::kKmv});
  EXPECT_EQ(tc.value, algo::triangle_count_probgraph(*legacy_kmv.pg));
  EXPECT_EQ(tc.sketch.kind, SketchKind::kKmv);
  EXPECT_TRUE(tc.sketch.degree_oriented);

  engine::PairEstimate pq{engine::EstimateKind::kJaccard, {{0, 1}}, false};
  pq.sketch = SketchKind::kKmv;
  const auto pair = e.run(pq);
  EXPECT_EQ(pair.pairs[0].value, fresh_kmv_sym.est_jaccard(0, 1));
  EXPECT_EQ(pair.sketch.kind, SketchKind::kKmv);
}

TEST(EngineMultiSubstrate, MissingSubstrateErrorsNameWhatTheFileServes) {
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  try {
    (void)e.run(engine::TriangleCount{.sketch = SketchKind::kOneHash});
    FAIL() << "expected a routing error for an uncarried kind";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("1H/dag"), std::string::npos) << what;
    EXPECT_NE(what.find("BF/sym, BF/dag, KMV/sym, KMV/dag"), std::string::npos) << what;
  }
}

TEST(EngineMultiSubstrate, TcWithoutADagSubstrateOfTheKindFallsBackToFullMode) {
  // The v1 golden file carries only BF/sym: an explicit kind=bf tc must
  // still answer through the Thm-VII.1 full-graph estimator.
  const CsrGraph g = golden_graph();
  const ProbGraph fresh(g, ProbGraphConfig{});
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const auto r = e.run(engine::TriangleCount{.sketch = SketchKind::kBloomFilter});
  EXPECT_EQ(r.value, algo::triangle_count_probgraph(fresh, algo::TcMode::kFull));
  EXPECT_FALSE(r.sketch.degree_oriented);
  // ...but a kind the file does not carry at all is an error.
  EXPECT_THROW((void)e.run(engine::TriangleCount{.sketch = SketchKind::kKmv}),
               std::runtime_error);
}

TEST(EngineMultiSubstrate, AmbiguousDefaultRouteSaysPickAKind) {
  // Several DAG substrates, none of the primary kind: the default route is
  // ambiguous — the error must say so (not "carries no DAG sketches") and
  // point at kind=, and an explicit kind= must work.
  const CsrGraph g = golden_graph();
  const CsrGraph dag = degree_orient(g);  // ONE dag shared by both substrates
  const ProbGraph sym_bf(g, ProbGraphConfig{});
  ProbGraphConfig dag_cfg;
  dag_cfg.budget_reference_bytes = g.memory_bytes();
  dag_cfg.kind = SketchKind::kKmv;
  const ProbGraph dag_kmv(dag, dag_cfg);
  dag_cfg.kind = SketchKind::kKHash;
  const ProbGraph dag_kh(dag, dag_cfg);
  const io::SnapshotSubstrate subs[] = {{&sym_bf, false}, {&dag_kmv, true}, {&dag_kh, true}};
  TempFile file("engine_ambiguous");
  io::save_snapshot(file.path, subs);

  engine::Engine e = engine::Engine::from_snapshot(file.path);
  try {
    (void)e.run(engine::FourCliqueCount{});
    FAIL() << "expected an ambiguous-routing error";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("several"), std::string::npos) << what;
    EXPECT_NE(what.find("kind="), std::string::npos) << what;
  }
  EXPECT_EQ(e.run(engine::FourCliqueCount{.sketch = SketchKind::kKHash}).value,
            algo::four_clique_count_probgraph(dag_kh));
  // tc must surface the same ambiguity, NOT silently degrade to the
  // full-graph estimator while two usable DAG substrates sit mapped.
  try {
    (void)e.run(engine::TriangleCount{});
    FAIL() << "expected tc to error on the ambiguous DAG route";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("several"), std::string::npos) << err.what();
  }
  EXPECT_EQ(e.run(engine::TriangleCount{.sketch = SketchKind::kKmv}).value,
            algo::triangle_count_probgraph(dag_kmv));
}

TEST(EngineMultiSubstrate, StatsPreferTheCarriedSymmetricGraph) {
  // A dag-primary file that still carries the symmetric CSR: stats must
  // describe the symmetric graph (what pair/cc/lp answer over), not the
  // primary DAG's out-degrees.
  const CsrGraph g = golden_graph();
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig dag_cfg;
  dag_cfg.budget_reference_bytes = g.memory_bytes();
  const ProbGraph dag_bf(dag, dag_cfg);
  ProbGraphConfig kmv_cfg;
  kmv_cfg.kind = SketchKind::kKmv;
  const ProbGraph sym_kmv(g, kmv_cfg);
  const io::SnapshotSubstrate subs[] = {{&dag_bf, true}, {&sym_kmv, false}};
  TempFile file("engine_dag_primary_stats");
  io::save_snapshot(file.path, subs);

  engine::Engine e = engine::Engine::from_snapshot(file.path);
  const auto r = e.run(engine::GraphStats{});
  EXPECT_EQ(r.stats->num_edges, g.num_edges());
  EXPECT_EQ(r.stats->num_directed_edges, g.num_directed_edges());
  EXPECT_EQ(r.stats->max_degree, g.max_degree());
  EXPECT_EQ(r.stats->avg_degree, g.avg_degree());
}

TEST(EngineMultiSubstrate, ExactQueriesUseTheMappedDagCsr) {
  // golden_v2.pgs carries the DAG CSR, so exact counting needs no
  // in-memory re-orientation and still matches the exact free function.
  const CsrGraph g = golden_graph();
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  EXPECT_EQ(e.run(engine::TriangleCount{.exact = true}).value,
            static_cast<double>(algo::triangle_count_exact(g)));
  EXPECT_EQ(e.run(engine::FourCliqueCount{.exact = true}).value,
            static_cast<double>(algo::four_clique_count_exact(g)));
}

TEST(EngineMultiSubstrate, InMemoryEngineRejectsMismatchedKind) {
  // An in-memory engine is routed like the snapshot of its substrate set,
  // so an uncarried kind fails with the same routing error.
  engine::Engine e(golden_graph());  // BF/sym + BF/dag
  EXPECT_NO_THROW((void)e.run(engine::TriangleCount{.sketch = SketchKind::kBloomFilter}));
  try {
    (void)e.run(engine::TriangleCount{.sketch = SketchKind::kKmv});
    FAIL() << "expected a routing error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(),
                 "snapshot carries no KMV/dag substrate (it serves BF/sym, BF/dag); "
                 "rebuild with --kinds including KMV, or route to a carried kind "
                 "with kind=");
  }
}

/// Every Query variant, exact and sketch, routed by default and by kind=
/// (1h is carried by none of the sets below, so those lines must fail).
constexpr const char* kEveryVariant[] = {
    "tc", "tc exact", "tc kind=kmv", "tc kind=1h",
    "4cc", "4cc exact", "4cc kind=kmv", "4cc kind=1h",
    "kclique 4", "kclique 4 exact", "kclique 4 kind=1h",
    "cc", "cc exact", "cc kind=kmv", "cc kind=1h",
    "cluster jaccard 0.1", "cluster jaccard 0.1 exact", "cluster overlap 0.2 kind=kmv",
    "pair intersection 0 1 2 3 4 5", "pair jaccard 0 1 kind=kmv", "pair overlap 6 7 exact",
    "pair total 8 9 kind=1h",
    "lp 5 common", "lp 5 adamic exact", "lp 5 jaccard kind=kmv", "lp 5 common kind=1h",
    "stats",
};

/// Run one protocol line; the reply's numbers, or the error text.
struct Outcome {
  std::optional<engine::QueryResult> result;
  std::string error;
};

Outcome run_line(const engine::Engine& e, const char* line) {
  const auto parsed = engine::parse_request(line);
  EXPECT_TRUE(parsed.query.has_value()) << line << ": " << parsed.error;
  try {
    return {e.run(*parsed.query), ""};
  } catch (const std::exception& err) {
    return {std::nullopt, err.what()};
  }
}

/// Bit-identical answers: every value and all sketch and bound metadata,
/// but not timings or whether the bytes are mapped.
void expect_same_answer(const Outcome& mem, const Outcome& snap, const char* line) {
  SCOPED_TRACE(line);
  ASSERT_EQ(mem.result.has_value(), snap.result.has_value())
      << "in-memory: " << mem.error << " | snapshot: " << snap.error;
  EXPECT_EQ(mem.error, snap.error);
  if (!mem.result) return;
  const engine::QueryResult& a = *mem.result;
  const engine::QueryResult& b = *snap.result;
  EXPECT_STREQ(a.name, b.name);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.value, b.value);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].u, b.pairs[i].u);
    EXPECT_EQ(a.pairs[i].v, b.pairs[i].v);
    EXPECT_EQ(a.pairs[i].value, b.pairs[i].value);
  }
  ASSERT_EQ(a.cluster.has_value(), b.cluster.has_value());
  if (a.cluster) {
    EXPECT_EQ(a.cluster->num_clusters, b.cluster->num_clusters);
    EXPECT_EQ(a.cluster->kept_edges, b.cluster->kept_edges);
  }
  ASSERT_EQ(a.stats.has_value(), b.stats.has_value());
  if (a.stats) {
    EXPECT_EQ(a.stats->num_vertices, b.stats->num_vertices);
    EXPECT_EQ(a.stats->num_edges, b.stats->num_edges);
    EXPECT_EQ(a.stats->num_directed_edges, b.stats->num_directed_edges);
    EXPECT_EQ(a.stats->max_degree, b.stats->max_degree);
    EXPECT_EQ(a.stats->degree_moment2, b.stats->degree_moment2);
    EXPECT_EQ(a.stats->degree_moment3, b.stats->degree_moment3);
  }
  ASSERT_EQ(a.bound.has_value(), b.bound.has_value());
  if (a.bound) {
    EXPECT_STREQ(a.bound->name, b.bound->name);
    EXPECT_EQ(a.bound->t, b.bound->t);
    EXPECT_EQ(a.bound->probability, b.bound->probability);
  }
  EXPECT_EQ(a.sketch.used, b.sketch.used);
  EXPECT_EQ(a.sketch.kind, b.sketch.kind);
  EXPECT_EQ(a.sketch.degree_oriented, b.sketch.degree_oriented);
  EXPECT_EQ(a.sketch.bf_bits, b.sketch.bf_bits);
  EXPECT_EQ(a.sketch.minhash_k, b.sketch.minhash_k);
  EXPECT_EQ(a.sketch.relative_memory, b.sketch.relative_memory);
  EXPECT_EQ(engine::format_reply(a), engine::format_reply(b));
}

struct SubstrateSpec {
  const char* tag;
  std::vector<SketchKind> kinds;
  bool symmetric;
  bool degree_oriented;
};

std::ostream& operator<<(std::ostream& os, const SubstrateSpec& spec) { return os << spec.tag; }

class EngineSources : public ::testing::TestWithParam<SubstrateSpec> {};

TEST_P(EngineSources, InMemoryEngineAnswersAsItsSavedSubstrateSet) {
  const SubstrateSpec& spec = GetParam();
  const CsrGraph g = golden_graph();
  const io::SubstrateSet set =
      io::build_substrates(g, spec.kinds, spec.symmetric, spec.degree_oriented);
  TempFile file(std::string("engine_sources_") + spec.tag);
  io::save_snapshot(file.path, set.substrates);

  const engine::Engine snap = engine::Engine::from_snapshot(file.path);
  const engine::Engine mem(golden_graph(), spec.kinds, spec.symmetric, spec.degree_oriented,
                           ProbGraphConfig{});
  for (const char* line : kEveryVariant) {
    expect_same_answer(run_line(mem, line), run_line(snap, line), line);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GoldenGraph, EngineSources,
    ::testing::Values(
        SubstrateSpec{"both", {SketchKind::kBloomFilter, SketchKind::kKmv}, true, true},
        // No DAG substrate: tc falls back to the full-mode estimator, the
        // other counting queries fail, and exact counting orients per query.
        SubstrateSpec{"sym", {SketchKind::kBloomFilter}, true, false},
        SubstrateSpec{"kh_primary", {SketchKind::kKHash, SketchKind::kKmv}, true, true}),
    [](const auto& info) { return std::string(info.param.tag); });

TEST(EngineInMemory, NoKindsBuildsNoSketches) {
  // What pgtool's --exact and stats one-shots construct.
  const CsrGraph g = golden_graph();
  const engine::Engine e(golden_graph(), {}, /*symmetric=*/true, /*degree_oriented=*/true,
                         ProbGraphConfig{});
  EXPECT_EQ(e.run(engine::FourCliqueCount{.exact = true}).value,
            static_cast<double>(algo::four_clique_count_exact(g)));
  EXPECT_EQ(e.run(engine::GraphStats{}).stats->num_edges, g.num_edges());
  try {
    (void)e.run(engine::TriangleCount{});
    FAIL() << "expected a routing error";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("carries no sketches"), std::string::npos)
        << err.what();
  }
}

// --- Request validation. ---

TEST(EngineValidation, RejectsMalformedQueries) {
  engine::Engine e(golden_graph());
  EXPECT_THROW((void)e.run(engine::PairEstimate{}), std::invalid_argument);  // empty batch
  EXPECT_THROW(
      (void)e.run(engine::PairEstimate{engine::EstimateKind::kJaccard, {{0, 999}}, false}),
      std::invalid_argument);
  EXPECT_THROW((void)e.run(engine::KCliqueCount{.k = 2}), std::invalid_argument);
  // A non-finite threshold would silently make every comparison false.
  EXPECT_THROW((void)e.run(engine::Cluster{algo::SimilarityMeasure::kJaccard,
                                           std::nan(""), false}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)e.run(engine::Cluster{algo::SimilarityMeasure::kJaccard,
                                  std::numeric_limits<double>::infinity(), false}),
      std::invalid_argument);
}

TEST(EngineBounds, MinHashBoundsAccompanyEstimates) {
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kKHash;
  engine::Engine e(golden_graph(), cfg);
  const auto tc = e.run(engine::TriangleCount{});
  ASSERT_TRUE(tc.bound.has_value());
  EXPECT_GT(tc.bound->probability, 0.0);
  EXPECT_LE(tc.bound->probability, 1.0);
  EXPECT_GT(tc.bound->t, 0.0);

  const auto pair = e.run(
      engine::PairEstimate{engine::EstimateKind::kIntersection, {{0, 1}, {2, 3}}, false});
  ASSERT_TRUE(pair.bound.has_value());
  EXPECT_GT(pair.bound->probability, 0.0);
  EXPECT_LE(pair.bound->probability, 1.0);
}

// --- Protocol parsing and serve-session robustness. ---

TEST(Protocol, ParsesWellFormedRequests) {
  EXPECT_TRUE(std::holds_alternative<engine::TriangleCount>(
      *engine::parse_request("tc").query));
  EXPECT_TRUE(std::get<engine::TriangleCount>(*engine::parse_request("TC exact").query).exact);
  EXPECT_EQ(std::get<engine::KCliqueCount>(*engine::parse_request("kclique 5").query).k, 5u);
  const auto cluster = std::get<engine::Cluster>(
      *engine::parse_request("cluster jaccard 0.25").query);
  EXPECT_EQ(cluster.measure, algo::SimilarityMeasure::kJaccard);
  EXPECT_EQ(cluster.tau, 0.25);
  const auto pair = std::get<engine::PairEstimate>(
      *engine::parse_request("pair overlap 3 4 5 6").query);
  EXPECT_EQ(pair.kind, engine::EstimateKind::kOverlap);
  ASSERT_EQ(pair.pairs.size(), 2u);
  EXPECT_EQ(pair.pairs[1].u, 5u);
  const auto lp = std::get<engine::LinkPredict>(*engine::parse_request("lp 7 adamic").query);
  EXPECT_EQ(lp.topk, 7u);
  EXPECT_EQ(lp.measure, algo::SimilarityMeasure::kAdamicAdar);
  EXPECT_TRUE(engine::parse_request("quit").quit);
  EXPECT_TRUE(engine::parse_request("exit").quit);
  EXPECT_TRUE(engine::parse_request("help").help);
  EXPECT_TRUE(engine::parse_request("").ignored);
  EXPECT_TRUE(engine::parse_request("   ").ignored);
  EXPECT_TRUE(engine::parse_request("# a comment").ignored);
}

TEST(Protocol, ParsesKindClauses) {
  // kind= routes to a sketch substrate, anywhere after the command.
  const auto tc = std::get<engine::TriangleCount>(*engine::parse_request("tc kind=kmv").query);
  EXPECT_EQ(tc.sketch, SketchKind::kKmv);
  EXPECT_FALSE(tc.exact);
  EXPECT_EQ(std::get<engine::TriangleCount>(*engine::parse_request("tc").query).sketch,
            std::nullopt);
  const auto pair = std::get<engine::PairEstimate>(
      *engine::parse_request("pair kind=bf jaccard 0 1").query);
  EXPECT_EQ(pair.sketch, SketchKind::kBloomFilter);
  EXPECT_EQ(pair.kind, engine::EstimateKind::kJaccard);
  const auto cluster = std::get<engine::Cluster>(
      *engine::parse_request("cluster jaccard 0.25 kind=1h").query);
  EXPECT_EQ(cluster.sketch, SketchKind::kOneHash);
  const auto lp = std::get<engine::LinkPredict>(
      *engine::parse_request("lp 5 common KIND=KH").query);  // case-insensitive
  EXPECT_EQ(lp.sketch, SketchKind::kKHash);
  const auto kc = std::get<engine::KCliqueCount>(
      *engine::parse_request("kclique 4 kind=bf").query);
  EXPECT_EQ(kc.sketch, SketchKind::kBloomFilter);
  EXPECT_EQ(kc.k, 4u);
}

TEST(Protocol, MalformedLinesReportErrorsWithoutQueries) {
  for (const char* line :
       {"bogus", "tc extra", "kclique", "kclique two", "kclique 2", "cluster jaccard",
        "cluster nope 0.1", "cluster jaccard abc", "pair", "pair nope 0 1",
        "pair jaccard 0", "pair jaccard a b", "lp", "lp -3", "lp 5 nope", "quit now",
        // Non-finite numerics: from_chars accepts these spellings, the
        // protocol must not ("cluster jaccard nan" would reply ok with a
        // threshold for which every comparison is false).
        "cluster jaccard nan", "cluster jaccard inf", "cluster jaccard -inf",
        "cluster jaccard NaN",
        // kind= clause misuse.
        "tc kind=", "tc kind=bogus", "tc kind=bf kind=kmv", "tc kind=bf exact",
        "stats kind=bf", "pair kind=exact jaccard 0 1"}) {
    const auto req = engine::parse_request(line);
    EXPECT_FALSE(req.query.has_value()) << "line '" << line << "' parsed unexpectedly";
    EXPECT_FALSE(req.error.empty()) << "line '" << line << "' produced no error";
  }
}

TEST(Protocol, ServeSessionAnswersErrLinesAndKeepsServing) {
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const serve_test::Replay r = serve_test::replay(
      e,
      "bogus\n"
      "pair intersection 0\n"
      "pair intersection 0 99999\n"
      "4cc\n"
      "kclique 2\n"
      "stats\n"
      "quit\n"
      "stats\n");  // after quit: must not be answered
  EXPECT_EQ(r.answered, 1u);  // only the first stats

  std::vector<std::string> lines;
  std::istringstream replies(r.replies);
  for (std::string l; std::getline(replies, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(lines[i].rfind("err\t", 0), 0u) << "line " << i << ": " << lines[i];
  }
  EXPECT_EQ(lines[5].rfind("ok\tstats\t", 0), 0u);
  EXPECT_EQ(lines[6], "bye");
}

/// The replay splits the golden fixtures are checked at: one byte per
/// read (every request split mid-token), a 7-byte prime stride, and the
/// whole script in one read (every request pipelined into one batch).
constexpr std::size_t kSplits[] = {1, 7, serve_test::kWholeScript};

TEST(Protocol, GoldenTranscriptIsStable) {
  // The same fixture CI pipes through a real `pgtool serve` process:
  //   pgtool serve tests/data/golden.pgs --threads 1 < serve_session.txt
  // Regenerate serve_session.expected deliberately via that command after
  // any intentional protocol/estimator change.
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const std::string script = read_file(data_path("serve_session.txt"));
  const std::string expected = read_file(data_path("serve_session.expected"));
  for (const std::size_t chunk : kSplits) {
    EXPECT_EQ(serve_test::replay(e, script, chunk).replies, expected)
        << "read chunk " << chunk;
  }
}

TEST(Protocol, FailedWriteEndsTheSessionWithTheCountSoFar) {
  // A peer that stops reading (a closed pipe or socket) turns into a
  // failed write: the driver stops reading and returns what was answered
  // — the requests behind the failed write are never executed.
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const auto host = engine::make_session_host(e);
  const std::string request = "stats\n";
  int reads = 0;
  int writes = 0;
  const std::size_t answered = engine::run_blocking_session(
      *host,
      [&](char* buf, std::size_t cap) {
        ++reads;
        EXPECT_GE(cap, request.size());
        request.copy(buf, request.size());  // an endless stream of stats
        return static_cast<long>(request.size());
      },
      [&](std::string_view bytes) {
        EXPECT_EQ(bytes.rfind("ok\tstats\t", 0), 0u) << bytes;
        return ++writes < 2;  // the peer goes away after the first reply
      });
  EXPECT_EQ(answered, 2u);
  EXPECT_EQ(reads, 2);
  EXPECT_EQ(writes, 2);
}

TEST(Protocol, MultiSubstrateSessionRoutesPerQuery) {
  // One mapping answers DAG-substrate counting AND symmetric-substrate
  // neighborhood queries in a single session, with kind= switching the
  // sketch family per query.
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  const serve_test::Replay r = serve_test::replay(
      e,
      "tc\n"
      "tc kind=kmv\n"
      "pair jaccard 0 1\n"
      "pair jaccard 0 1 kind=kmv\n"
      "4cc\n"
      "cluster jaccard 0.1 kind=kmv\n"
      "tc kind=1h\n"
      "quit\n");
  EXPECT_EQ(r.answered, 6u);

  std::vector<std::string> lines;
  std::istringstream replies(r.replies);
  for (std::string l; std::getline(replies, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0].rfind("ok\ttc\t", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ok\ttc\t", 0), 0u);
  EXPECT_NE(lines[0], lines[1]) << "BF and KMV TC estimates should differ";
  EXPECT_EQ(lines[2].rfind("ok\tpair\t0:1=", 0), 0u);
  EXPECT_EQ(lines[3].rfind("ok\tpair\t0:1=", 0), 0u);
  EXPECT_NE(lines[2], lines[3]) << "BF and KMV pair estimates should differ";
  EXPECT_EQ(lines[4].rfind("ok\t4cc\t", 0), 0u);
  EXPECT_EQ(lines[5].rfind("ok\tcluster\t", 0), 0u);
  EXPECT_EQ(lines[6].rfind("err\t", 0), 0u);  // 1h is not carried
  EXPECT_EQ(lines[7], "bye");
}

TEST(Protocol, MultiGoldenTranscriptsAreStable) {
  // The same fixtures CI's multi-substrate e2e drives through two real
  // concurrent `pgtool client` processes against one serve --listen.
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  for (const auto& [script, expected] :
       {std::pair{"serve_multi_tc.txt", "serve_multi_tc.expected"},
        std::pair{"serve_multi_pair.txt", "serve_multi_pair.expected"}}) {
    for (const std::size_t chunk : kSplits) {
      EXPECT_EQ(serve_test::replay(e, read_file(data_path(script)), chunk).replies,
                read_file(data_path(expected)))
          << script << ", read chunk " << chunk;
    }
  }
}

TEST(Protocol, FormatReplyShapes) {
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden.pgs"));
  const auto pair_reply = engine::format_reply(
      e.run(engine::PairEstimate{engine::EstimateKind::kIntersection, {{0, 1}}, false}));
  EXPECT_EQ(pair_reply.rfind("ok\tpair\t0:1=", 0), 0u) << pair_reply;
  const auto stats_reply = engine::format_reply(e.run(engine::GraphStats{}));
  EXPECT_NE(stats_reply.find("\tn=32\t"), std::string::npos) << stats_reply;
  EXPECT_EQ(engine::format_error("multi\nline\tmessage"), "err\tmulti line message");
}

TEST(EngineBatch, RunBatchIsBitIdenticalToPerQueryRun) {
  // The pipelined-batch contract: run_batch may hoist the substrate route
  // of consecutive same-route pair/lp queries, but every captured outcome
  // — result bytes, error text, error kind — must equal what a per-query
  // run() sequence produces. The mix below exercises every grouping edge:
  // a same-route run (pair, pair, lp), an invalid query inside it, a
  // run-breaking scalar query, an explicit kind= run, and an exact query
  // (never grouped).
  engine::Engine e = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  const char* lines[] = {
      "pair intersection 0 1",
      "pair jaccard 2 3",
      "lp 5 common",
      "pair intersection 0 999",
      "tc",
      "pair intersection 4 5 kind=kmv",
      "pair jaccard 6 7 kind=kmv",
      "pair jaccard 0 1 exact",
      "stats",
      "pair total 8 9",
  };
  std::vector<engine::Query> queries;
  for (const char* line : lines) {
    const auto parsed = engine::parse_request(line);
    ASSERT_TRUE(parsed.query.has_value()) << line << ": " << parsed.error;
    queries.push_back(*parsed.query);
  }

  const std::vector<engine::BatchItem> batch = e.run_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    try {
      const engine::QueryResult direct = e.run(queries[i]);
      ASSERT_TRUE(batch[i].result.has_value())
          << lines[i] << " failed in the batch: " << batch[i].error;
      EXPECT_EQ(engine::format_reply(*batch[i].result),
                engine::format_reply(direct))
          << lines[i];
      EXPECT_TRUE(batch[i].error.empty()) << lines[i];
      EXPECT_FALSE(batch[i].invalid_argument) << lines[i];
    } catch (const std::invalid_argument& ex) {
      EXPECT_FALSE(batch[i].result.has_value()) << lines[i];
      EXPECT_TRUE(batch[i].invalid_argument) << lines[i];
      EXPECT_EQ(batch[i].error, ex.what()) << lines[i];
    } catch (const std::exception& ex) {
      EXPECT_FALSE(batch[i].result.has_value()) << lines[i];
      EXPECT_FALSE(batch[i].invalid_argument) << lines[i];
      EXPECT_EQ(batch[i].error, ex.what()) << lines[i];
    }
  }

  EXPECT_TRUE(e.run_batch({}).empty());
}

}  // namespace
}  // namespace probgraph
