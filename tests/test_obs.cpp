// The observability core (src/obs/): histogram bucket math, merge-at-
// scrape correctness, concurrent-writer exactness, registry identity, and
// the three exposition formats — plus the protocol surfaces (`metrics`
// verb, `time` clause, err-cause counters) over an in-memory session.
//
// The registry is process-global, so counter assertions here read deltas
// (value after − value before), never absolute values: other tests in
// this binary may have recorded into the same instruments.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "graph/generators.hpp"
#include "obs/instruments.hpp"
#include "obs/kernel_metrics.hpp"
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

using obs::Counter;
using obs::Histogram;

// --- Bucket math. ---

TEST(ObsHistogram, BucketBoundsContainTheirValues) {
  // Every unit value lands in a bucket whose [lower, upper) brackets it.
  const auto check = [](std::uint64_t u) {
    const int b = Histogram::bucket_index(u);
    ASSERT_GE(b, 0) << u;
    ASSERT_LT(b, Histogram::kBuckets) << u;
    EXPECT_GE(u, Histogram::bucket_lower(b)) << "bucket " << b;
    // Buckets are [lower, upper) except the last, whose upper saturates at
    // UINT64_MAX and is therefore inclusive.
    if (b < Histogram::kBuckets - 1) {
      EXPECT_LT(u, Histogram::bucket_upper(b)) << "bucket " << b;
    } else {
      EXPECT_LE(u, Histogram::bucket_upper(b)) << "bucket " << b;
    }
  };
  for (std::uint64_t u = 0; u < 4096; ++u) check(u);
  for (int shift = 12; shift < 64; ++shift) {
    const std::uint64_t base = std::uint64_t{1} << shift;
    for (const std::uint64_t u :
         {base - 1, base, base + 1, base + base / 2, base + base - 1}) {
      check(u);
    }
  }
  check(~std::uint64_t{0});
}

TEST(ObsHistogram, BucketIndexIsMonotoneAndBoundsTile) {
  // Indices never decrease with the value, and bucket bounds tile the
  // range exactly (upper of b == lower of b+1).
  int prev = -1;
  for (std::uint64_t u = 0; u < 100000; ++u) {
    const int b = Histogram::bucket_index(u);
    EXPECT_GE(b, prev) << u;
    prev = b;
  }
  for (int b = 0; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_upper(b), Histogram::bucket_lower(b + 1)) << b;
  }
}

TEST(ObsHistogram, RelativeBucketErrorIsAtMostAQuarter) {
  // The log-linear scheme's guarantee: bucket width / lower bound <= 1/4
  // for every non-exact bucket (buckets 0..15 are exact).
  for (int b = 16; b + 1 < Histogram::kBuckets; ++b) {
    const double lo = static_cast<double>(Histogram::bucket_lower(b));
    const double hi = static_cast<double>(Histogram::bucket_upper(b));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << b;
  }
}

// --- Observation semantics. ---

TEST(ObsHistogram, CountSumMaxAreExactAndQuantilesBracketed) {
  Histogram h;
  // 100 samples at 1ms..100ms.
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-3);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.sum, 5.050, 1e-6);   // Σ i/1000
  EXPECT_NEAR(s.max, 0.100, 1e-9);   // max is exact (CAS-tracked)
  // Quantiles are bucketed: within 25% relative error of the true order
  // statistic, and never above the recorded max.
  EXPECT_NEAR(s.quantile(0.5), 0.050, 0.050 * 0.25);
  EXPECT_NEAR(s.quantile(0.9), 0.090, 0.090 * 0.25);
  EXPECT_NEAR(s.quantile(0.99), 0.099, 0.099 * 0.25);
  EXPECT_LE(s.quantile(0.999), s.max + 1e-12);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max);
}

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(ObsHistogram, MergeAtScrapeSeesEveryShardsObservations) {
  // 4 writer threads × disjoint value ranges: the scrape-side merge must
  // account for every observation exactly once regardless of which shard
  // each thread landed on.
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_units(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Σ 0..N-1 in units.
  const std::uint64_t n = kThreads * kPerThread;
  EXPECT_DOUBLE_EQ(s.sum * Histogram::kUnitsPerValue,
                   static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(s.max * Histogram::kUnitsPerValue,
                   static_cast<double>(n - 1));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

TEST(ObsCounter, ConcurrentWritersAreExact) {
  // fetch_add never loses increments: 8 threads × 100k adds == 800k, not
  // approximately 800k. This is the counter's contract, and the reason
  // the scrape path may read relaxed.
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// --- Registry. ---

TEST(ObsRegistry, GetOrCreateReturnsStableIdentity) {
  auto& reg = obs::Registry::global();
  Counter& a = reg.counter("probgraph_test_identity_total", "test",
                           {{"which", "a"}});
  Counter& a2 = reg.counter("probgraph_test_identity_total", "test",
                            {{"which", "a"}});
  Counter& b = reg.counter("probgraph_test_identity_total", "test",
                           {{"which", "b"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  // Type mismatch on an existing name+labels is a logic error, not a
  // silent second instrument.
  EXPECT_THROW(reg.histogram("probgraph_test_identity_total", "test",
                             {{"which", "a"}}),
               std::logic_error);
}

TEST(ObsRegistry, PrometheusTextCarriesFamiliesQuantilesAndEscapes) {
  auto& reg = obs::Registry::global();
  reg.counter("probgraph_test_scrape_total", "scrape test counter",
              {{"label", "with\"quote\\and\nnewline"}})
      .add(7);
  reg.histogram("probgraph_test_scrape_seconds", "scrape test histogram")
      .observe(0.25);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP probgraph_test_scrape_total scrape test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE probgraph_test_scrape_total counter"),
            std::string::npos);
  // Label escaping: quote, backslash, newline.
  EXPECT_NE(text.find("label=\"with\\\"quote\\\\and\\nnewline\""),
            std::string::npos);
  // Histograms expose summary quantiles + _sum/_count + a _max gauge.
  EXPECT_NE(text.find("probgraph_test_scrape_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("probgraph_test_scrape_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("probgraph_test_scrape_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("probgraph_test_scrape_seconds_max"), std::string::npos);
  // The kernel section is always present (dispatch level + tallies).
  EXPECT_NE(text.find("probgraph_kernel_dispatch_level{level=\""),
            std::string::npos);
  EXPECT_NE(text.find("probgraph_kernel_invocations_total{op=\"min_merge\"}"),
            std::string::npos);
}

TEST(ObsRegistry, TabTextIsOneLine) {
  auto& reg = obs::Registry::global();
  reg.counter("probgraph_test_tab_total", "tab test").add();
  const std::string text = reg.tab_text();
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("probgraph_test_tab_total="), std::string::npos);
}

// --- Kernel counters (compiled in iff PROBGRAPH_OBS). ---

TEST(ObsKernels, DispatchedWrappersTallyInvocationsAndElements) {
  const std::size_t op =
      static_cast<std::size_t>(obs::KernelOp::kIntersectCountMerge);
  const std::uint64_t inv_before =
      obs::g_kernel_counters.invocations[op].value();
  const std::uint64_t elem_before = obs::g_kernel_counters.elements[op].value();

  const std::vector<VertexId> x = {1, 2, 3, 5, 8};
  const std::vector<VertexId> y = {2, 3, 5, 7};
  EXPECT_EQ(kernels::intersect_count_merge(x, y), 3u);

  const std::uint64_t inv_delta =
      obs::g_kernel_counters.invocations[op].value() - inv_before;
  const std::uint64_t elem_delta =
      obs::g_kernel_counters.elements[op].value() - elem_before;
#if defined(PROBGRAPH_OBS) && PROBGRAPH_OBS
  EXPECT_EQ(inv_delta, 1u);
  EXPECT_EQ(elem_delta, x.size() + y.size());
#else
  EXPECT_EQ(inv_delta, 0u);
  EXPECT_EQ(elem_delta, 0u);
#endif
}

// --- Protocol surfaces over an in-memory session. ---

engine::Engine make_engine() {
  return engine::Engine(gen::kronecker(8, 8, /*seed=*/42));
}

std::vector<std::string> serve_lines(engine::Engine& eng,
                                     const std::string& script) {
  std::vector<std::string> lines;
  std::istringstream replies(serve_test::replay(eng, script).replies);
  std::string line;
  while (std::getline(replies, line)) lines.push_back(line);
  return lines;
}

std::uint64_t counter_value(const char* name, const obs::Labels& labels) {
  const obs::Counter* c = obs::Registry::global().find_counter(name, labels);
  return c == nullptr ? 0 : c->value();
}

TEST(ObsProtocol, MetricsVerbRepliesOneTabSeparatedLine) {
  engine::Engine eng = make_engine();
  const auto lines = serve_lines(eng, "stats\nmetrics\nquit\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok\tstats\t", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ok\tmetrics\t", 0), 0u);
  // The snapshot names at least the query counter and the dispatch level.
  EXPECT_NE(lines[1].find("probgraph_queries_total"), std::string::npos);
  EXPECT_NE(lines[1].find("probgraph_kernel_dispatch_level"),
            std::string::npos);
  EXPECT_EQ(lines[2], "bye");
}

TEST(ObsProtocol, TimeClauseAppendsElapsedAndLeavesPlainRepliesAlone) {
  engine::Engine eng = make_engine();
  const auto plain = serve_lines(eng, "stats\nquit\n");
  const auto timed = serve_lines(eng, "stats time\nquit\n");
  ASSERT_EQ(plain.size(), 2u);
  ASSERT_EQ(timed.size(), 2u);
  // The timed reply is the plain reply plus exactly one appended field —
  // this is the determinism story: `time` changes only its own reply.
  const std::size_t pos = timed[0].find("\telapsed_us=");
  ASSERT_NE(pos, std::string::npos) << timed[0];
  EXPECT_EQ(timed[0].substr(0, pos), plain[0]);
  // The clause composes anywhere; duplicates are rejected.
  const auto dup = serve_lines(eng, "stats time time\nquit\n");
  EXPECT_EQ(dup[0].rfind("err\t", 0), 0u) << dup[0];
  EXPECT_NE(dup[0].find("duplicate time clause"), std::string::npos);
}

TEST(ObsProtocol, ErrCausesAreCountedDistinctly) {
  engine::Engine eng = make_engine();
  const obs::Labels parse{{"cause", "parse"}};
  const obs::Labels bad{{"cause", "bad-argument"}};
  const obs::Labels engine_cause{{"cause", "engine"}};
  const char* name = "probgraph_session_errors_total";

  const std::uint64_t parse_before = counter_value(name, parse);
  const std::uint64_t bad_before = counter_value(name, bad);
  const std::uint64_t engine_before = counter_value(name, engine_cause);

  // One parse failure (unknown verb), one client bug (vertex out of
  // range), plus a healthy query so the mix is realistic.
  const auto lines =
      serve_lines(eng, "definitely-not-a-verb\npair intersection 0 999999\nstats\nquit\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("err\t", 0), 0u);
  EXPECT_EQ(lines[1].rfind("err\t", 0), 0u);
  EXPECT_EQ(lines[2].rfind("ok\tstats\t", 0), 0u);

  EXPECT_EQ(counter_value(name, parse) - parse_before, 1u);
  EXPECT_EQ(counter_value(name, bad) - bad_before, 1u);
  EXPECT_EQ(counter_value(name, engine_cause) - engine_before, 0u);
}

TEST(ObsProtocol, OverlongFramesCountAsTheirOwnCause) {
  // One 200-byte frame against a 128-byte bound, then EOF: the session
  // must answer an err line AND tally the "overlong" cause — protocol
  // abuse stays distinguishable from client bugs in the scrape output.
  const obs::Labels overlong{{"cause", "overlong"}};
  const std::uint64_t before =
      counter_value("probgraph_session_errors_total", overlong);
  engine::Engine eng = make_engine();
  const auto host = engine::make_session_host(eng);
  engine::Session session(*host, {}, 128);
  session.feed(std::string(200, 'x') + "\n");
  session.feed_eof();
  session.pump();
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.answered(), 0u);
  std::vector<std::string> replies;
  std::istringstream out(session.output());
  for (std::string line; std::getline(out, line);) replies.push_back(line);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("err\t", 0), 0u);
  EXPECT_EQ(counter_value("probgraph_session_errors_total", overlong) - before,
            1u);
}

TEST(ObsEngine, QueriesLatencyAndSubstrateRoutingAreRecorded) {
  auto& reg = obs::Registry::global();
  const char* qname = "probgraph_queries_total";
  const obs::Labels tc_sketch{{"type", "tc"}, {"mode", "sketch"}};
  const obs::Labels tc_exact{{"type", "tc"}, {"mode", "exact"}};
  const std::uint64_t sketch_before = counter_value(qname, tc_sketch);
  const std::uint64_t exact_before = counter_value(qname, tc_exact);

  engine::Engine eng = make_engine();
  (void)eng.run(engine::TriangleCount{});
  (void)eng.run(engine::TriangleCount{/*exact=*/true});

  EXPECT_EQ(counter_value(qname, tc_sketch) - sketch_before, 1u);
  EXPECT_EQ(counter_value(qname, tc_exact) - exact_before, 1u);
  // The latency histogram and substrate counter exist and show up in the
  // exposition with the expected label sets.
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find("probgraph_query_latency_seconds{type=\"tc\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("probgraph_query_substrate_total{kind=\"bf\","
                      "orientation=\"dag\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace probgraph
