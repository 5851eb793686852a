// Table IV: work/depth of the |N_u ∩ N_v| primitives, validated
// empirically — latency of CSR merge (O(du + dv)), CSR galloping
// (O(du log dv)), BF bitwise AND (O(B/W)), and MinHash intersections (O(k))
// across neighborhood-size shapes.
//
// Paper-shape expectations: merge scales with du + dv and galloping wins
// when dv >> du; the BF/MinHash kernels are size-independent (fixed B or
// k), which is exactly the load-balancing argument of Fig. 1 panel 5.
//
// Kernel-level columns: every primitive with a SIMD implementation in
// src/core/kernels/ runs three ways — `Scalar` (the portable reference,
// called explicitly), the bare name (runtime-dispatched: AVX2/AVX512/NEON
// when cpuid allows, otherwise the same scalar code), and `Batch` where a
// batched entry point exists (one base row vs a candidate arena). Each
// reports intersections/sec plus cycles/op and cycles/edge (TSC on x86,
// the generic counter-timer on AArch64); the Scalar-vs-dispatched ratio
// is the single-core SIMD speedup claimed in the PR.
//
// A second mode compares the ProbGraph estimator entry points over a full
// edge sweep of a Kronecker graph: the legacy per-call path (the
// SketchKind × BfEstimator switch re-resolves on every edge), the hoisted
// backend path (dispatch once, monomorphic loop), and the batched backend
// path (est_intersection_batch per vertex — what triangle counting and
// link prediction now run).
//
// A third compares the two BF membership filters over the C3 probes of a
// 4-clique query (`BM_BloomMember*`, cycles/probe per hash count b).
//
// `--json` (stdout) or `--json=FILE` dump the full report as JSON; they
// are shorthand for the corresponding --benchmark_* flags.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "core/backends.hpp"
#include "core/bloom_filter.hpp"
#include "core/intersect.hpp"
#include "core/kernels/kernels.hpp"
#include "core/minhash.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace pb = probgraph;
namespace pk = probgraph::kernels;

namespace {

/// Monotonic cycle counter: TSC on x86-64, the virtual counter-timer on
/// AArch64 (fixed frequency, not core cycles, but stable for ratios), 0
/// elsewhere (the cycle columns then read 0 and the time columns remain).
inline std::uint64_t read_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;
#endif
}

/// Shared counter block: `ops` intersections per iteration, `edges`
/// elements/words the kernel touches per operation (the denominator of
/// cycles/edge), `cycles` measured across the whole timing loop.
void set_kernel_counters(benchmark::State& state, std::uint64_t cycles, double ops_per_iter,
                         double edges_per_op) {
  const double total_ops = static_cast<double>(state.iterations()) * ops_per_iter;
  state.counters["intersections/sec"] =
      benchmark::Counter(total_ops, benchmark::Counter::kIsRate);
  if (cycles > 0 && total_ops > 0) {
    state.counters["cycles/op"] = static_cast<double>(cycles) / total_ops;
    state.counters["cycles/edge"] =
        static_cast<double>(cycles) / (total_ops * edges_per_op);
  }
}

std::vector<pb::VertexId> random_sorted_set(std::size_t size, pb::VertexId universe,
                                            std::uint64_t seed) {
  pb::util::Xoshiro256 rng(seed);
  std::vector<pb::VertexId> out;
  out.reserve(size);
  std::vector<bool> used(universe, false);
  while (out.size() < size) {
    const auto v = static_cast<pb::VertexId>(rng.bounded(universe));
    if (!used[v]) {
      used[v] = true;
      out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Sorted CSR intersection: scalar reference vs dispatched kernel. ---

template <typename Fn>
void csr_pair_bench(benchmark::State& state, Fn&& fn) {
  const auto du = static_cast<std::size_t>(state.range(0));
  const auto dv = static_cast<std::size_t>(state.range(1));
  const auto x = random_sorted_set(du, 1 << 20, 1);
  const auto y = random_sorted_set(dv, 1 << 20, 2);
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(x, y));
  }
  const std::uint64_t c1 = read_cycles();
  set_kernel_counters(state, c1 - c0, 1.0, static_cast<double>(du + dv));
}

void BM_CsrMergeScalar(benchmark::State& state) {
  csr_pair_bench(state, [](const auto& x, const auto& y) {
    return pk::scalar::intersect_count_merge(x, y);
  });
}

void BM_CsrMerge(benchmark::State& state) {
  csr_pair_bench(state, [](const auto& x, const auto& y) {
    return pb::intersect_size_merge(x, y);  // dispatched kernel
  });
}

void BM_CsrGallopScalar(benchmark::State& state) {
  csr_pair_bench(state, [](const auto& x, const auto& y) {
    return pk::scalar::intersect_count_gallop(x, y);
  });
}

void BM_CsrGallop(benchmark::State& state) {
  csr_pair_bench(state, [](const auto& x, const auto& y) {
    return pb::intersect_size_gallop(x, y);  // dispatched kernel
  });
}

// --- BF bitwise AND + popcount: scalar vs dispatched vs batched. ---

constexpr std::uint64_t kBfBits = 4096;  // fixed B regardless of du, dv

template <typename Fn>
void bloom_pair_bench(benchmark::State& state, Fn&& fn) {
  const auto du = static_cast<std::size_t>(state.range(0));
  const auto dv = static_cast<std::size_t>(state.range(1));
  pb::BloomFilter bx(kBfBits, 2, 1), by(kBfBits, 2, 1);
  bx.insert(random_sorted_set(du, 1 << 20, 1));
  by.insert(random_sorted_set(dv, 1 << 20, 2));
  const auto wx = bx.view().words();
  const auto wy = by.view().words();
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(wx, wy));
  }
  const std::uint64_t c1 = read_cycles();
  set_kernel_counters(state, c1 - c0, 1.0, static_cast<double>(wx.size()));
}

void BM_BloomAndScalar(benchmark::State& state) {
  bloom_pair_bench(state, [](auto wx, auto wy) {
    return pk::scalar::and_popcount(wx.data(), wy.data(), wx.size());
  });
}

void BM_BloomAnd(benchmark::State& state) {
  bloom_pair_bench(state, [](auto wx, auto wy) {
    return pb::util::and_popcount(wx, wy);  // dispatched kernel
  });
}

/// Batched sweep shape: one hot base filter against a 64-row candidate
/// arena — the memory access pattern of the batched estimators in
/// core/backends.hpp. Reports per-candidate-pair rates.
void BM_BloomAndBatch(benchmark::State& state) {
  const auto du = static_cast<std::size_t>(state.range(0));
  const auto dv = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kCands = 64;
  pb::BloomFilter base(kBfBits, 2, 1);
  base.insert(random_sorted_set(du, 1 << 20, 1));
  const std::size_t wpv = base.view().words().size();
  std::vector<std::uint64_t> arena(kCands * wpv);
  std::vector<pb::VertexId> cands(kCands);
  for (std::size_t c = 0; c < kCands; ++c) {
    pb::BloomFilter f(kBfBits, 2, 1);
    f.insert(random_sorted_set(dv, 1 << 20, 100 + c));
    const auto w = f.view().words();
    std::copy(w.begin(), w.end(), arena.begin() + static_cast<std::ptrdiff_t>(c * wpv));
    cands[c] = static_cast<pb::VertexId>(c);
  }
  std::vector<std::uint64_t> counts(kCands);
  const auto base_words = base.view().words();
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    pk::and_popcount_batch(base_words, arena.data(), wpv, cands, counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  const std::uint64_t c1 = read_cycles();
  set_kernel_counters(state, c1 - c0, static_cast<double>(kCands),
                      static_cast<double>(wpv));
}

// --- MinHash intersections: O(k) regardless of shape. ---

void BM_OneHash(benchmark::State& state) {
  const auto du = static_cast<std::size_t>(state.range(0));
  const auto dv = static_cast<std::size_t>(state.range(1));
  pb::OneHashSketch sx(64, 1), sy(64, 1);
  sx.build(random_sorted_set(du, 1 << 20, 1));
  sy.build(random_sorted_set(dv, 1 << 20, 2));
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pb::OneHashSketch::intersection_size(sx.entries(), sy.entries(), 64));
  }
  const std::uint64_t c1 = read_cycles();
  set_kernel_counters(state, c1 - c0, 1.0, 64.0);
}

template <typename Fn>
void khash_pair_bench(benchmark::State& state, Fn&& fn) {
  const auto du = static_cast<std::size_t>(state.range(0));
  const auto dv = static_cast<std::size_t>(state.range(1));
  pb::KHashSketch sx(64, 1), sy(64, 1);
  sx.build(random_sorted_set(du, 1 << 20, 1));
  sy.build(random_sorted_set(dv, 1 << 20, 2));
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(sx.slots(), sy.slots()));
  }
  const std::uint64_t c1 = read_cycles();
  set_kernel_counters(state, c1 - c0, 1.0, 64.0);
}

void BM_KHashScalar(benchmark::State& state) {
  khash_pair_bench(state, [](auto a, auto b) {
    return pk::scalar::match_count_u64(a.data(), b.data(), a.size(), pb::kEmptySlot);
  });
}

void BM_KHash(benchmark::State& state) {
  khash_pair_bench(state, [](auto a, auto b) {
    return pb::KHashSketch::matching_slots(a, b);  // dispatched kernel
  });
}

void shapes(benchmark::internal::Benchmark* b) {
  // Balanced, skewed, and very skewed neighborhood pairs.
  b->Args({64, 64})->Args({512, 512})->Args({4096, 4096});
  b->Args({64, 4096})->Args({64, 65536})->Args({512, 65536});
}

BENCHMARK(BM_CsrMergeScalar)->Apply(shapes);
BENCHMARK(BM_CsrMerge)->Apply(shapes);
BENCHMARK(BM_CsrGallopScalar)->Apply(shapes);
BENCHMARK(BM_CsrGallop)->Apply(shapes);
BENCHMARK(BM_BloomAndScalar)->Apply(shapes);
BENCHMARK(BM_BloomAnd)->Apply(shapes);
BENCHMARK(BM_BloomAndBatch)->Apply(shapes);
BENCHMARK(BM_OneHash)->Apply(shapes);
BENCHMARK(BM_KHashScalar)->Apply(shapes);
BENCHMARK(BM_KHash)->Apply(shapes);

// --- Estimator entry points over an edge sweep: per-call dispatch vs.
// --- hoisted backend vs. batched backend. ---

const pb::CsrGraph& dispatch_graph() {
  static const pb::CsrGraph g = pb::gen::kronecker(13, 16.0, 42);
  return g;
}

const pb::ProbGraph& dispatch_pg(pb::SketchKind kind) {
  static std::vector<std::unique_ptr<pb::ProbGraph>> cache(4);
  const auto idx = static_cast<std::size_t>(kind);
  if (!cache[idx]) {
    pb::ProbGraphConfig cfg;
    cfg.kind = kind;
    cfg.storage_budget = 0.25;
    cache[idx] = std::make_unique<pb::ProbGraph>(dispatch_graph(), cfg);
  }
  return *cache[idx];
}

void set_sweep_counters(benchmark::State& state, std::uint64_t cycles) {
  const auto edges = static_cast<double>(dispatch_graph().num_edges());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
  state.counters["intersections/sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * edges, benchmark::Counter::kIsRate);
  if (cycles > 0) {
    state.counters["cycles/edge"] =
        static_cast<double>(cycles) / (static_cast<double>(state.iterations()) * edges);
  }
}

/// Legacy path: the kind/estimator switch re-runs on every edge.
void BM_PgEdgeSweepPerCallDispatch(benchmark::State& state) {
  const auto kind = static_cast<pb::SketchKind>(state.range(0));
  const pb::CsrGraph& g = dispatch_graph();
  const pb::ProbGraph& pg = dispatch_pg(kind);
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    double total = 0.0;
    for (pb::VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const pb::VertexId u : g.neighbors(v)) {
        if (u > v) total += pg.est_intersection(v, u);
      }
    }
    benchmark::DoNotOptimize(total);
  }
  const std::uint64_t c1 = read_cycles();
  set_sweep_counters(state, c1 - c0);
}

/// Refactored path: dispatch once, monomorphic estimator in the loop.
void BM_PgEdgeSweepHoistedBackend(benchmark::State& state) {
  const auto kind = static_cast<pb::SketchKind>(state.range(0));
  const pb::CsrGraph& g = dispatch_graph();
  const pb::ProbGraph& pg = dispatch_pg(kind);
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    const double total = pg.visit_backend([&](const auto be) {
      double acc = 0.0;
      for (pb::VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const pb::VertexId u : g.neighbors(v)) {
          if (u > v) acc += be.est_intersection(v, u);
        }
      }
      return acc;
    });
    benchmark::DoNotOptimize(total);
  }
  const std::uint64_t c1 = read_cycles();
  set_sweep_counters(state, c1 - c0);
}

/// Batched path: one est_intersection_batch per vertex over the u > v
/// suffix — the sweep triangle counting and link prediction now issue.
void BM_PgEdgeSweepBatchedBackend(benchmark::State& state) {
  const auto kind = static_cast<pb::SketchKind>(state.range(0));
  const pb::CsrGraph& g = dispatch_graph();
  const pb::ProbGraph& pg = dispatch_pg(kind);
  std::vector<double> scores;
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    const double total = pg.visit_backend([&](const auto be) {
      double acc = 0.0;
      for (pb::VertexId v = 0; v < g.num_vertices(); ++v) {
        auto cands = g.neighbors(v);
        const auto first = std::upper_bound(cands.begin(), cands.end(), v);
        cands = cands.subspan(static_cast<std::size_t>(first - cands.begin()));
        if (cands.empty()) continue;
        scores.resize(cands.size());
        be.est_intersection_batch(v, cands, scores.data());
        for (const double s : scores) acc += s;
      }
      return acc;
    });
    benchmark::DoNotOptimize(total);
  }
  const std::uint64_t c1 = read_cycles();
  set_sweep_counters(state, c1 - c0);
}

// --- BF membership filter over a C3-shaped sweep: for every DAG arc
// --- (u, v), the elements of N+v inside BF(N+u) — the candidate filter of
// --- the BF 4-clique kernel. One iteration is one query's worth of probes
// --- on one core: the hash-per-probe `contains` loop against the probe
// --- table (built inside the iteration, as a query builds it) plus the
// --- branchless compaction kernel. Both keep the same candidates.

const pb::CsrGraph& c3_dag() {
  static const pb::CsrGraph dag = pb::degree_orient(dispatch_graph());
  return dag;
}

template <typename Sweep>
void bloom_member_bench(benchmark::State& state, Sweep&& sweep) {
  const pb::util::ThreadScope one(1);
  pb::ProbGraphConfig cfg;
  cfg.storage_budget = 0.25;
  cfg.bf_hashes = static_cast<std::uint32_t>(state.range(0));
  const pb::ProbGraph pg(c3_dag(), cfg);
  const auto be = pg.backend<pb::BloomAndBackend>();
  std::vector<pb::VertexId> buf(c3_dag().max_degree());
  std::uint64_t probes = 0, kept = 0;
  const std::uint64_t c0 = read_cycles();
  for (auto _ : state) {
    probes = 0;
    kept = 0;
    sweep(be, buf, probes, kept);
    benchmark::DoNotOptimize(kept);
  }
  const std::uint64_t c1 = read_cycles();
  const double total = static_cast<double>(state.iterations()) * static_cast<double>(probes);
  state.counters["probes/sec"] = benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.counters["probes/query"] = static_cast<double>(probes);
  state.counters["kept/probe"] = static_cast<double>(kept) / static_cast<double>(probes);
  if (c1 > c0 && total > 0) state.counters["cycles/probe"] = static_cast<double>(c1 - c0) / total;
}

void BM_BloomMemberContains(benchmark::State& state) {
  bloom_member_bench(state, [](const auto& be, auto& buf, std::uint64_t& probes,
                               std::uint64_t& kept) {
    const pb::CsrGraph& dag = c3_dag();
    for (pb::VertexId u = 0; u < dag.num_vertices(); ++u) {
      const pb::BloomFilterView bf_u = be.bf(u);
      for (const pb::VertexId v : dag.neighbors(u)) {
        std::size_t k = 0;
        for (const pb::VertexId x : dag.neighbors(v)) {
          if (bf_u.contains(x)) buf[k++] = x;
        }
        probes += dag.degree(v);
        kept += k;
      }
    }
  });
}

void BM_BloomMemberProbeTable(benchmark::State& state) {
  bloom_member_bench(state, [](const auto& be, auto& buf, std::uint64_t& probes,
                               std::uint64_t& kept) {
    const pb::CsrGraph& dag = c3_dag();
    const pb::BloomProbeTable table = be.probe_table();
    for (pb::VertexId u = 0; u < dag.num_vertices(); ++u) {
      const auto wu = be.words(u);
      for (const pb::VertexId v : dag.neighbors(u)) {
        kept += table.filter(wu, dag.neighbors(v), buf.data());
        probes += dag.degree(v);
      }
    }
  });
}

BENCHMARK(BM_BloomMemberContains)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BloomMemberProbeTable)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void dispatch_kinds(benchmark::internal::Benchmark* b) {
  b->Arg(static_cast<int>(pb::SketchKind::kBloomFilter))
      ->Arg(static_cast<int>(pb::SketchKind::kKHash))
      ->Arg(static_cast<int>(pb::SketchKind::kOneHash))
      ->Arg(static_cast<int>(pb::SketchKind::kKmv));
}

BENCHMARK(BM_PgEdgeSweepPerCallDispatch)->Apply(dispatch_kinds)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PgEdgeSweepHoistedBackend)->Apply(dispatch_kinds)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PgEdgeSweepBatchedBackend)->Apply(dispatch_kinds)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: translate the `--json[=FILE]` shorthand into the underlying
// google-benchmark flags, pass everything else through untouched.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      args.emplace_back("--benchmark_format=json");
    } else if (a.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out_format=json");
      args.emplace_back("--benchmark_out=" + a.substr(7));
    } else {
      args.push_back(a);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
