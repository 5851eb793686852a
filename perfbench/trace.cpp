// pgbench trace: the per-layer run. It calls each layer's public functions
// on the workload's own inputs, wraps every call in a span (common.hpp),
// writes the spans out at the end, and prints the per-layer metrics as one
// JSON object. Spans live in this file only: the program under test is
// unchanged.
//
//   pgbench trace --edges E --snapshot S --dir D --kinds bf[,kh] --spans-out FILE
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/triangle_count.hpp"
#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "pgbench.hpp"

namespace pgbench {

namespace {

constexpr std::size_t kReps = 5;            // repetitions of each timed call
constexpr std::size_t kMiningPairs = 7;     // direct + Engine::run pairs per query
constexpr std::size_t kRequests = 2000;     // point requests of the request stream

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  void print(const std::string& extra) const {
    std::printf("{%s\"metrics\": {", extra.c_str());
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  items[i].first.c_str(), items[i].second.first, items[i].second.second.c_str());
    }
    std::printf("}}\n");
  }
};

// Forwards to the real host; records run_batch as a child span of the
// session span around it.
class TracingHost final : public engine::SessionHost {
 public:
  TracingHost(engine::SessionHost& inner, Tracer& tr) : inner_(inner), tr_(tr) {}
  engine::QueryResult run(const engine::Query& q) override { return inner_.run(q); }
  std::vector<engine::BatchItem> run_batch(std::span<const engine::Query> qs) override {
    Tracer::Scope s(tr_, "engine.run_batch");
    return inner_.run_batch(qs);
  }
  std::string live(const engine::LiveRequest& req) override { return inner_.live(req); }

 private:
  engine::SessionHost& inner_;
  Tracer& tr_;
};

// Kernel tallies and dispatch level, read from a `metrics` verb reply.
struct KernelScrape {
  std::map<std::string, double> calls;
  std::map<std::string, double> elements;
  std::string dispatch;
};

KernelScrape scrape(engine::Session& session) {
  session.feed("metrics\n");
  session.pump();
  std::string reply;
  reply.swap(session.output());
  KernelScrape k;
  std::istringstream fields(reply);
  for (std::string f; std::getline(fields, f, '\t');) {
    const auto eq = f.rfind('=');
    if (eq == std::string::npos) continue;
    const auto quoted = [&](const std::string& prefix) -> std::string {
      if (f.rfind(prefix, 0) != 0) return {};
      return f.substr(prefix.size(), f.find('"', prefix.size()) - prefix.size());
    };
    const double value = std::atof(f.c_str() + eq + 1);
    if (auto op = quoted("probgraph_kernel_invocations_total{op=\""); !op.empty()) k.calls[op] = value;
    if (auto op = quoted("probgraph_kernel_elements_total{op=\""); !op.empty()) k.elements[op] = value;
    if (auto lvl = quoted("probgraph_kernel_dispatch_level{level=\""); !lvl.empty() && value > 0) {
      k.dispatch = lvl;
    }
  }
  return k;
}

// The kernel names of the `metrics` verb, fixed here so the metric names do
// not change when the library adds a kernel.
constexpr const char* kKernelOps[] = {
    "intersect_count_merge", "intersect_count_gallop", "intersect_into_merge",
    "intersect_into_gallop", "and_popcount",           "or_popcount",
    "and3_popcount",         "popcount",               "match_count_u64",
    "min_merge",
};

// Bytes one counted element moves, per kernel: popcount kernels count
// 64-bit words per operand, intersections 32-bit ids, MinHash kernels
// 64-bit slots of two sketches.
double bytes_per_element(const std::string& op) {
  if (op == "and_popcount" || op == "or_popcount") return 16;
  if (op == "and3_popcount") return 24;
  if (op == "popcount") return 8;
  if (op == "match_count_u64" || op == "min_merge") return 16;
  return 4;  // intersect_* over vertex ids
}

std::vector<Edge> read_edges(const std::string& path) {
  std::vector<Edge> edges;
  for (const std::string& line : read_lines(path)) {
    std::istringstream in(line);
    VertexId u = 0, v = 0;
    if (in >> u >> v) edges.emplace_back(u, v);
  }
  return edges;
}

}  // namespace

int cmd_trace(const Flags& f) {
  const std::filesystem::path dir = flag(f, "dir");
  const std::string edges_path = flag(f, "edges");
  const std::string snapshot_path = flag(f, "snapshot");
  std::vector<SketchKind> kinds;
  {
    std::istringstream in(flag(f, "kinds"));
    for (std::string k; std::getline(in, k, ',');) kinds.push_back(*parse_sketch_kind(k));
  }
  Tracer tr;
  Metrics out;
  const auto med_s = [&](const std::string& span) { return median(tr.durations(span)) / 1e9; };

  // --- graph and io: the set-up path of `pgtool build` and `serve`.
  for (std::size_t r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, "io.read_edge_list");
    (void)io::read_edge_list(edges_path);
  }
  const std::vector<Edge> raw = read_edges(edges_path);
  std::unique_ptr<CsrGraph> g;
  for (std::size_t r = 0; r < kReps; ++r) {
    std::vector<Edge> copy = raw;
    Tracer::Scope s(tr, "graph.from_edges");
    g = std::make_unique<CsrGraph>(GraphBuilder::from_edges(std::move(copy)));
  }
  std::optional<io::SubstrateSet> set;
  for (std::size_t r = 0; r < kReps; ++r) {
    set.reset();
    Tracer::Scope s(tr, "core.sketch_build");
    set.emplace(io::build_substrates(*g, kinds, /*symmetric=*/true, /*degree_oriented=*/true));
  }
  const std::string trace_pgs = dir / "trace.pgs";
  for (std::size_t r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, "io.save_snapshot");
    io::save_snapshot(trace_pgs, set->substrates);
  }
  for (std::size_t r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, "io.load_snapshot");
    (void)io::load_snapshot(trace_pgs);
  }
  const double snapshot_mb = static_cast<double>(std::filesystem::file_size(trace_pgs)) / 1e6;
  std::filesystem::remove(trace_pgs);
  set.reset();
  out.set("graph.from_edges_s", med_s("graph.from_edges"), "s");
  out.set("io.read_edge_list_s", med_s("io.read_edge_list"), "s");
  out.set("io.save_snapshot_s", med_s("io.save_snapshot"), "s");
  out.set("io.load_snapshot_s", med_s("io.load_snapshot"), "s");
  out.set("io.snapshot_mb", snapshot_mb, "MB");
  out.set("core.sketch_build_s", med_s("core.sketch_build"), "s");

  // --- mining: algorithms entry points, then the same query via Engine::run.
  engine::Engine eng = engine::Engine::from_snapshot(snapshot_path);
  const io::Snapshot& snap = *eng.snapshot();
  const ProbGraph& pg_dag = *snap.find_substrate(kinds[0], /*degree_oriented=*/true);
  const ProbGraph& pg_sym = *snap.find_substrate(kinds[0], /*degree_oriented=*/false);
  const CsrGraph& dag = *snap.graph_for(true);
  const CsrGraph& sym = *snap.graph_for(false);
  const std::unique_ptr<engine::SessionHost> host = engine::make_session_host(eng);
  engine::Session scrape_session(*host);
  std::map<std::string, double> kernel_calls, kernel_elements;
  std::map<std::string, double> query_calls, query_bytes;
  std::string dispatch;

  struct Mining {
    const char* name;
    engine::Query query;
    std::function<void()> sketch;
    std::function<void()> exact;
  };
  engine::Cluster cluster;
  cluster.measure = algo::SimilarityMeasure::kJaccard;
  cluster.tau = 0.1;
  const std::vector<Mining> mining = {
      {"tc", engine::TriangleCount{},
       [&] { (void)algo::triangle_count_probgraph(pg_dag); },
       [&] { (void)algo::triangle_count_exact_oriented(dag); }},
      {"4cc", engine::FourCliqueCount{},
       [&] { (void)algo::four_clique_count_probgraph(pg_dag); },
       [&] { (void)algo::four_clique_count_exact_oriented(dag); }},
      {"cluster", cluster,
       [&] { (void)algo::jarvis_patrick_probgraph(pg_sym, algo::SimilarityMeasure::kJaccard, 0.1); },
       [&] { (void)algo::jarvis_patrick_exact(sym, algo::SimilarityMeasure::kJaccard, 0.1); }},
  };
  for (const Mining& m : mining) {
    // Warm-up: fault the arenas in before timing.
    m.sketch();
    const std::string stem = m.name;
    const auto timed = [&](const std::string& span, const std::function<void()>& call) {
      {
        Tracer::Scope s(tr, span);
        call();
      }
      return tr.durations(span).back();
    };
    const auto engine_run = [&] {
      return timed("engine.run." + stem, [&] { (void)eng.run(m.query); });
    };
    const auto direct_run = [&] { return timed("algorithms." + stem, m.sketch); };
    // The kernel tallies of one engine run.
    const KernelScrape before = scrape(scrape_session);
    engine_run();
    const KernelScrape after = scrape(scrape_session);
    dispatch = after.dispatch;
    for (const auto& [op, calls] : after.calls) {
      const double dc = calls - before.calls.at(op);
      const double de = after.elements.at(op) - before.elements.at(op);
      kernel_calls[op] += dc;
      kernel_elements[op] += de;
      query_calls[m.name] += dc;
      query_bytes[m.name] += de * bytes_per_element(op);
    }
    // The direct call and the engine call do the same kernel work. They run
    // in back-to-back pairs, alternating which goes first; the engine's self
    // time is the median over the pairs of the engine call minus the direct
    // call, so drift between pairs cancels.
    std::vector<double> engine_self_ns;
    for (std::size_t r = 0; r < kMiningPairs; ++r) {
      if (r % 2 == 0) {
        const double direct = direct_run();
        engine_self_ns.push_back(engine_run() - direct);
      } else {
        const double engine = engine_run();
        engine_self_ns.push_back(engine - direct_run());
      }
    }
    for (std::size_t r = 0; r < kReps; ++r) {
      timed("algorithms." + stem + "_exact", m.exact);
    }
    out.set("algorithms." + stem + "_s", med_s("algorithms." + stem), "s");
    out.set("algorithms." + stem + "_exact_s", med_s("algorithms." + stem + "_exact"), "s");
    out.set("engine.run_ms." + stem, median(tr.durations("engine.run." + stem)) / 1e6, "ms");
    out.set("engine.self_ms." + stem, median(engine_self_ns) / 1e6, "ms");
  }
  for (const char* op : kKernelOps) {
    out.set(std::string("core.kernel.") + op + ".calls", kernel_calls[op], "count");
    out.set(std::string("core.kernel.") + op + ".elements", kernel_elements[op], "count");
  }
  for (const char* q : {"tc", "4cc", "cluster"}) {
    out.set(std::string("core.") + q + "_kernel_calls", query_calls[q], "count");
  }
  out.set("core.tc_bytes", query_bytes["tc"], "bytes");
  out.set("core.4cc_bytes", query_bytes["4cc"], "bytes");

  // --- point queries: the serve request stream, layer by layer.
  std::vector<std::string> requests = read_lines(dir / "requests.txt");
  requests.resize(std::min(requests.size(), kRequests));
  std::vector<engine::Query> queries;
  for (const std::string& line : requests) queries.push_back(*engine::parse_request(line).query);
  std::vector<double> pair_ns;
  for (std::size_t r = 0; r < kReps; ++r) {
    std::size_t pairs = 0;
    double sink = 0;
    const std::uint64_t t0 = now_ns();
    for (const engine::Query& q : queries) {
      const auto& pe = std::get<engine::PairEstimate>(q);
      const ProbGraph& pg = pe.sketch ? *snap.find_substrate(*pe.sketch, false) : pg_sym;
      for (const engine::VertexPair& p : pe.pairs) sink += pg.est_intersection(p.u, p.v);
      pairs += pe.pairs.size();
    }
    pair_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(pairs));
    if (std::isnan(sink)) std::printf("# nan\n");
  }
  out.set("core.est_pair_ns", median(pair_ns), "ns");

  for (std::size_t r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::optional<engine::ParsedRequest> parsed;
      {
        Tracer::Scope s(tr, "engine.parse", i + 1);
        parsed = engine::parse_request(requests[i]);
      }
      std::optional<engine::QueryResult> res;
      {
        Tracer::Scope s(tr, "engine.run.pair", i + 1);
        res = eng.run(*parsed->query);
      }
      Tracer::Scope s(tr, "engine.format", i + 1);
      (void)engine::format_reply(*res);
    }
  }
  out.set("engine.run_us.pair", median(tr.durations("engine.run.pair")) / 1e3, "us");
  out.set("engine.parse_ns", median(tr.durations("engine.parse")), "ns");
  out.set("engine.format_ns", median(tr.durations("engine.format")), "ns");

  {
    TracingHost traced(*host, tr);
    engine::Session session(traced);
    for (std::size_t r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Tracer::Scope s(tr, "engine.session", i + 1);
        session.feed(requests[i] + "\n");
        session.pump();
        session.output().clear();
      }
    }
  }
  out.set("engine.session_us", median(tr.durations("engine.session")) / 1e3, "us");
  out.set("engine.session_self_us", median(tr.self_times("engine.session")) / 1e3, "us");

  // --- live: apply and seal the workload's 64-edge batch.
  const std::vector<Edge> batch_edges = read_edges(dir / "edges.txt");
  const std::string live_pgs = dir / "trace_live.pgs";
  const std::string mod_pgs = dir / "trace_mod.pgs";
  std::filesystem::copy_file(snapshot_path, live_pgs,
                             std::filesystem::copy_options::overwrite_existing);
  {
    const io::Snapshot base = io::load_snapshot(live_pgs);
    live::DeltaBatch ins;
    ins.inserts = batch_edges;
    for (std::size_t r = 0; r < kReps; ++r) {
      Tracer::Scope s(tr, "live.apply.insert");
      const live::UpdatedSnapshot up = live::apply_batch(base, ins);
      if (r == 0) io::save_snapshot(mod_pgs, up.substrates);
    }
    const io::Snapshot mod = io::load_snapshot(mod_pgs);
    live::DeltaBatch del;
    del.deletes = batch_edges;
    for (std::size_t r = 0; r < kReps; ++r) {
      Tracer::Scope s(tr, "live.apply.delete");
      (void)live::apply_batch(mod, del);
    }
  }
  std::filesystem::remove(mod_pgs);
  out.set("live.apply_ms.insert", median(tr.durations("live.apply.insert")) / 1e6, "ms");
  out.set("live.apply_ms.delete", median(tr.durations("live.apply.delete")) / 1e6, "ms");
  {
    engine::LiveEngine le(live_pgs);
    live::ApplyStats cycle{};
    for (std::size_t r = 0; r < kReps; ++r) {
      for (const bool tombstone : {false, true}) {
        le.stage(tombstone, batch_edges);
        Tracer::Scope s(tr, "live.seal");
        const engine::LiveEngine::SealResult res = le.seal();
        if (r == 0) {
          cycle.vertices_patched += res.stats.vertices_patched;
          cycle.vertices_rebuilt += res.stats.vertices_rebuilt;
        }
      }
    }
    out.set("live.seal_ms", median(tr.durations("live.seal")) / 1e6, "ms");
    out.set("live.vertices_patched", static_cast<double>(cycle.vertices_patched), "count");
    out.set("live.vertices_rebuilt", static_cast<double>(cycle.vertices_rebuilt), "count");

    // Pin cost: what a live session adds to every query, the Reader::Pin
    // around Engine::run.
    engine::LiveEngine::Reader reader(le);
    std::vector<double> pin_ns;
    for (std::size_t r = 0; r < kReps; ++r) {
      constexpr int kPins = 100000;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kPins; ++i) {
        const engine::LiveEngine::Reader::Pin pin(reader);
        if (pin.generation() == 0) std::printf("# generation 0\n");
      }
      pin_ns.push_back(static_cast<double>(now_ns() - t0) / kPins);
    }
    out.set("live.pin_ns", median(pin_ns), "ns");
  }
  std::filesystem::remove(live_pgs);

  // --- obs: the cost of a metrics scrape and of one span.
  for (std::size_t r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, "obs.metrics_verb");
    (void)scrape(scrape_session);
  }
  out.set("obs.metrics_verb_us", median(tr.durations("obs.metrics_verb")) / 1e3, "us");
  {
    constexpr int kSpans = 20000;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) Tracer::Scope s(tr, "obs.empty");
    out.set("obs.span_overhead_ns", static_cast<double>(now_ns() - t0) / kSpans, "ns");
  }

  tr.write(flag(f, "spans-out"));
  out.print("\"dispatch\": \"" + dispatch + "\", \"spans\": " + std::to_string(tr.spans().size()) +
            ", ");
  return 0;
}

}  // namespace pgbench
