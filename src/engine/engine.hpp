// The query engine: one loaded graph (+ sketches), many typed queries.
//
// An Engine owns a graph source and executes `Query` requests against it
// (query.hpp). The source is one of two things, both fixed at
// construction:
//
//   * an mmap'ed .pgs snapshot, whose prebuilt sketches are served
//     zero-copy;
//   * an in-memory CsrGraph plus the substrate set io::build_substrates
//     returns for it — the same function and inputs `pgtool build` uses,
//     so an in-memory Engine is an unsaved snapshot: DAG sketches are
//     budget-referenced to G's CSR as in §V-A, and every answer is
//     bit-identical to serving the saved file.
//
// Either way the Engine sees a list of substrates (sketch kind ×
// orientation, primary first) plus at most one CSR per orientation, and
// every query is routed over that list by one set of rules. The query type
// fixes the orientation it needs — tc/4cc/kclique run on DAG sketches,
// cc/cluster/pair/lp on symmetric ones. Within that orientation (the
// `sketch` field of a Query, the protocol's `kind=` clause):
//
//   1. an explicit kind routes to exactly (kind, orientation) — carried or
//      error;
//   2. no kind defaults to the PRIMARY substrate's kind at the needed
//      orientation;
//   3. if the primary kind is not carried at that orientation but exactly
//      ONE substrate of it exists, that one answers (the unambiguous
//      fallback that keeps v1 single-substrate files working unchanged);
//   4. otherwise the query fails with a std::runtime_error naming the
//      carried substrates.
//
// Triangle counting is the exception to rule 4: without a DAG substrate it
// falls back to the Theorem-VII.1 full-graph estimator over the symmetric
// sketches. Exact queries need no sketches; when the source carries no DAG
// CSR, the counting ones orient the symmetric graph per query.
//
// The sketch-kind/estimator dispatch is hoisted per query via
// ProbGraph::visit_backend, so batched queries (PairEstimate, LinkPredict)
// score every pair through a monomorphic call chain.
//
// This is the substrate of `pgtool serve`: map the snapshot once, run an
// Engine over it, answer arbitrarily many queries with zero per-query
// setup. `pgtool query` parses its one request with the same protocol
// parser and runs it on the same Engine, so one-shot and served results
// are bit-identical.
//
// Thread safety: an Engine is immutable after construction — no mutex, no
// lazily filled member — so any number of threads may call run() and
// run_batch() concurrently, each getting its own results, and it does not
// matter which thread issues a call (the epoll reactor runs one session's
// queries on different workers). Per-query instrumentation writes
// relaxed atomics on per-thread-sharded obs:: instruments, which adds no
// lock. Construction, moves and destruction are not thread-safe: create
// the Engine before spawning sessions and destroy it after joining them.
// A live server (engine/generation.hpp) swaps whole Engines, one per
// sealed generation; sessions pin a generation for the duration of each
// run() call and must not hold the returned references across queries.
//
// The algorithms underneath parallelize with OpenMP; nested parallel
// regions issued from distinct session threads get independent teams.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/prob_graph.hpp"
#include "engine/query.hpp"
#include "graph/csr_graph.hpp"
#include "io/snapshot.hpp"

namespace probgraph::engine {

/// One query's outcome in Engine::run_batch — exactly what the same
/// run() call would have produced: either its QueryResult or the error it
/// would have thrown, so a serving session can turn a pipelined batch
/// into the identical reply lines (including err replies, in order).
struct BatchItem {
  std::optional<QueryResult> result;  ///< set iff the query succeeded
  std::string error;                  ///< the exception text otherwise
  bool invalid_argument = false;      ///< std::invalid_argument (client bug)
                                      ///< vs anything else (engine/routing)
  double wall_seconds = 0.0;          ///< full wall time of the run() call
};

class Engine {
 public:
  /// Serve from an in-memory graph, treated as symmetric. The Engine
  /// sketches it with io::build_substrates(g, kinds, symmetric,
  /// degree_oriented, config) — exactly what `pgtool build` would save —
  /// and routes queries over that set. Empty `kinds` builds no sketches:
  /// only exact and stats queries are answerable.
  Engine(CsrGraph g, std::span<const SketchKind> kinds, bool symmetric,
         bool degree_oriented, ProbGraphConfig config);

  /// Both orientations of `config.kind` (the form for tests and examples).
  explicit Engine(CsrGraph g, ProbGraphConfig config = {});

  /// Serve zero-copy from a .pgs snapshot: the file is mmap'ed and
  /// validated once, its prebuilt sketches answer every query with no
  /// per-query setup. Throws std::runtime_error on a rejected file.
  [[nodiscard]] static Engine from_snapshot(const std::string& path);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Execute one query. Throws std::invalid_argument on malformed requests
  /// (out-of-range vertices, k < 3, empty pair batch) and
  /// std::runtime_error when the source cannot answer the query (e.g. a
  /// counting estimate over a snapshot of the symmetric graph).
  [[nodiscard]] QueryResult run(const Query& query) const;

  /// Execute a pipelined batch in request order, capturing each query's
  /// outcome instead of throwing (one bad query must not eat the replies
  /// behind it in the pipeline). Results are BIT-IDENTICAL to calling
  /// run() per query — same values, same error text, same instrumentation
  /// — the batch only hoists routing: a maximal run of consecutive
  /// non-exact PairEstimate/LinkPredict queries naming the same substrate
  /// (the protocol's `kind=` clause) resolves its symmetric ProbGraph once
  /// and feeds every query in the run through the already-batched
  /// est_intersection_batch estimator routing with that resolution in
  /// hand.
  [[nodiscard]] std::vector<BatchItem> run_batch(std::span<const Query> queries) const;

  /// The source graph: the symmetric graph for in-memory engines and
  /// unoriented snapshots, the degree-oriented DAG for `--orient` ones.
  [[nodiscard]] const CsrGraph& graph() const noexcept { return *base_; }

  /// Snapshot header facts, or nullptr for in-memory engines.
  [[nodiscard]] const io::SnapshotInfo* snapshot_info() const noexcept {
    return snap_ ? &snap_->info() : nullptr;
  }

  /// The backing snapshot, or nullptr for in-memory engines. The live
  /// layer (engine/generation.hpp) applies delta batches against this.
  [[nodiscard]] const io::Snapshot* snapshot() const noexcept {
    return snap_ ? &*snap_ : nullptr;
  }

  /// True when the source carries only the degree-oriented DAG (an
  /// `--orient` snapshot with no symmetric substrate): neighborhood
  /// queries are unanswerable.
  [[nodiscard]] bool source_oriented() const noexcept { return sym_ == nullptr; }

 private:
  explicit Engine(io::Snapshot snap);

  QueryResult exec(const TriangleCount& q) const;
  QueryResult exec(const FourCliqueCount& q) const;
  QueryResult exec(const KCliqueCount& q) const;
  QueryResult exec(const ClusteringCoeff& q) const;
  QueryResult exec(const Cluster& q) const;
  // sym_hint: the pre-resolved symmetric substrate a batch run hoisted
  // (must equal route(q.sketch, false)); nullptr resolves per query.
  QueryResult exec(const PairEstimate& q, const ProbGraph* sym_hint = nullptr) const;
  QueryResult exec(const LinkPredict& q, const ProbGraph* sym_hint = nullptr) const;
  QueryResult exec(const GraphStats& q) const;

  /// run() with an optional hoisted substrate for pair/lp queries; the
  /// public run() is run_with_hint(query, nullptr).
  QueryResult run_with_hint(const Query& query, const ProbGraph* sym_hint) const;
  /// One run_batch element: run_with_hint with the throws captured.
  BatchItem run_one(const Query& query, const ProbGraph* sym_hint) const;

  /// Routing rules 1-3 above; nullptr where rule 4 applies.
  const ProbGraph* try_route(std::optional<SketchKind> kind, bool oriented) const noexcept;
  /// try_route, or the rule-4 error.
  const ProbGraph& route(std::optional<SketchKind> kind, bool oriented) const;
  /// True when at least one substrate of the given orientation is carried.
  bool carries_orientation(bool oriented) const noexcept;
  /// "BF/sym, BF/dag, ..." — what the source serves, for error messages.
  std::string describe_carried() const;
  /// The routing-failure error: names the missing substrate and what the
  /// source actually serves.
  [[noreturn]] void fail_routing(std::optional<SketchKind> kind, bool oriented) const;

  /// The symmetric graph; throws when the source carries only the DAG.
  const CsrGraph& symmetric_graph() const;
  /// The degree-oriented DAG: the source's DAG CSR when it carries one,
  /// else the symmetric graph oriented into `local`.
  const CsrGraph& dag(std::optional<CsrGraph>& local) const;

  void check_vertex(VertexId v) const;
  void fill_sketch_meta(QueryResult& r, const ProbGraph& pg, bool degree_oriented) const;

  // The source — a snapshot, or an owned graph plus the substrates built
  // over it. Its graphs and sketches live on the heap, so the pointers
  // below survive moves of the Engine.
  std::optional<io::Snapshot> snap_;
  std::unique_ptr<const CsrGraph> owned_graph_;
  io::SubstrateSet owned_set_;

  // The routing view over that source.
  const CsrGraph* base_ = nullptr;  // graph()
  const CsrGraph* sym_ = nullptr;   // null when only the DAG is carried
  const CsrGraph* dag_ = nullptr;   // null when no DAG CSR is carried
  SketchKind primary_ = SketchKind::kBloomFilter;
  std::vector<io::SnapshotSubstrate> subs_;  // primary first
};

}  // namespace probgraph::engine
