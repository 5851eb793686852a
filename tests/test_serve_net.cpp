// The concurrent TCP serving layer (src/net/) over a loopback socket.
//
// Everything here runs a real net::Transport over the golden snapshot's
// Engine — one shared read-only mapping — and drives it through real
// sockets, covering what the typed tests cannot:
//
//   * transport parity: every protocol-behavior test below is
//     value-parameterized over BOTH transports (thread-per-connection and
//     the epoll reactor) — same scripts, byte-identical transcripts;
//   * concurrency: N scripted sessions at once, each transcript
//     byte-identical to tests/data/serve_session.expected (this is also
//     the workload the ThreadSanitizer CI job runs);
//   * socket-edge protocol behavior: requests split across writes (down to
//     one byte per segment), CRLF framing, oversized lines (err + resync,
//     not disconnect), pipelined bursts coalesced into single segments,
//     abrupt client disconnects mid-session — including with a half-
//     flushed output buffer — and --max-conns capacity rejection;
//   * reactor scheduling: the per-turn fairness bound (observable through
//     the probgraph_reactor_turns_total counter) and a pipelining hog
//     sharing a single worker with a victim session;
//   * lifecycle: quit ends one session and not the server; request_stop()
//     unblocks parked sessions and run() joins them all.
//
// Replies are bitwise deterministic only at one OpenMP thread (the
// double-reduction kernels use dynamic scheduling), so like
// tests/test_engine.cpp the suite pins util::set_threads(1).
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "graph/io.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "serve_helpers.hpp"
#include "util/threading.hpp"

namespace probgraph {
namespace {

using serve_test::drain;
using serve_test::ReplyReader;
using serve_test::run_scripted_session;

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

/// One transport over one snapshot-backed Engine, run()ning on a
/// background thread for the duration of a test.
struct ServerFixture {
  explicit ServerFixture(net::TransportKind kind, net::ServeOptions opts = {})
      : engine(engine::Engine::from_snapshot(data_path("golden.pgs"))) {
    opts.engine = &engine;
    server = net::make_transport(kind, opts);
    thread = std::thread([this] { server->run(); });
  }

  ~ServerFixture() {
    server->request_stop();
    if (thread.joinable()) thread.join();
  }

  engine::Engine engine;
  std::unique_ptr<net::Transport> server;
  std::thread thread;
};

std::uint64_t counter_value(const char* name, const obs::Labels& labels = {}) {
  const obs::Counter* c = obs::Registry::global().find_counter(name, labels);
  return c == nullptr ? 0 : c->value();
}

/// Every protocol-behavior test runs against BOTH transports.
class ServeTransport : public ::testing::TestWithParam<net::TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    Transports, ServeTransport,
    ::testing::Values(net::TransportKind::kThreads, net::TransportKind::kEpoll),
    [](const ::testing::TestParamInfo<net::TransportKind>& info) {
      return std::string(net::transport_kind_name(info.param));
    });

TEST_P(ServeTransport, ScriptedSessionMatchesGoldenTranscript) {
  ServerFixture f(GetParam());
  const std::string transcript = run_scripted_session(
      f.server->port(), read_file(data_path("serve_session.txt")));
  EXPECT_EQ(transcript, read_file(data_path("serve_session.expected")));
  f.server->request_stop();
  f.thread.join();
  const auto c = f.server->counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.rejected, 0u);
  // The fixture's 12 "ok" replies (help/bye/err lines are not queries).
  EXPECT_EQ(c.queries_answered, 12u);
}

TEST_P(ServeTransport, FourConcurrentSessionsOverOneMappingAreByteIdentical) {
  // The acceptance workload (and the TSan job's): 4 sessions against ONE
  // shared Engine/mapping, every transcript byte-for-byte the golden one.
  ServerFixture f(GetParam());
  const std::string script = read_file(data_path("serve_session.txt"));
  const std::string expected = read_file(data_path("serve_session.expected"));

  constexpr int kClients = 4;
  std::vector<std::string> transcripts(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        transcripts[static_cast<std::size_t>(i)] =
            run_scripted_session(f.server->port(), script);
      });
    }
    for (auto& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(transcripts[static_cast<std::size_t>(i)], expected)
        << "client " << i << " transcript diverges";
  }
}

TEST_P(ServeTransport, ConcurrentSessionsHitDifferentSubstratesOfOneMapping) {
  // The multi-substrate acceptance workload: ONE server over the v2
  // golden snapshot (BF/sym + BF/dag + KMV/sym + KMV/dag), half the
  // clients driving DAG-substrate counting scripts and half driving
  // symmetric-substrate neighborhood scripts — every reply routed through
  // the same lock-free mapping, every transcript byte-identical to the
  // checked-in expectation for its script.
  engine::Engine eng = engine::Engine::from_snapshot(data_path("golden_v2.pgs"));
  net::ServeOptions opts;
  opts.engine = &eng;
  auto server = net::make_transport(GetParam(), opts);
  std::thread runner([&] { server->run(); });

  const std::string scripts[2] = {read_file(data_path("serve_multi_tc.txt")),
                                  read_file(data_path("serve_multi_pair.txt"))};
  const std::string expected[2] = {read_file(data_path("serve_multi_tc.expected")),
                                   read_file(data_path("serve_multi_pair.expected"))};

  constexpr int kClients = 4;  // two per script, interleaved
  std::vector<std::string> transcripts(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        transcripts[static_cast<std::size_t>(i)] =
            run_scripted_session(server->port(), scripts[i % 2]);
      });
    }
    for (auto& t : clients) t.join();
  }
  server->request_stop();
  runner.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(transcripts[static_cast<std::size_t>(i)], expected[i % 2])
        << "client " << i << " transcript diverges";
  }
}

TEST_P(ServeTransport, LazyCacheBuildIsRaceFreeAcrossSessions) {
  // An IN-MEMORY engine shared by concurrent sessions. It builds its DAG
  // and both sketch sets at construction, so the racing tc/4cc/cc queries
  // only read; every session must see the same answers (and TSan, no
  // race) over the in-memory source, as the snapshot tests do over a
  // mapping.
  engine::Engine eng(io::read_edge_list(data_path("golden.el")));
  net::ServeOptions opts;
  opts.engine = &eng;
  auto server = net::make_transport(GetParam(), opts);
  std::thread runner([&] { server->run(); });

  const std::string script = "tc\n4cc\ncc\nstats\nquit\n";
  constexpr int kClients = 4;
  std::vector<std::string> transcripts(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        transcripts[static_cast<std::size_t>(i)] =
            run_scripted_session(server->port(), script);
      });
    }
    for (auto& t : clients) t.join();
  }
  server->request_stop();
  runner.join();

  EXPECT_EQ(transcripts[0].rfind("ok\ttc\t", 0), 0u) << transcripts[0];
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(transcripts[static_cast<std::size_t>(i)], transcripts[0])
        << "client " << i << " saw a different reply under concurrent first queries";
  }
}

TEST_P(ServeTransport, PartialWritesAndCrlfFramesParse) {
  ServerFixture f(GetParam());
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);

  // One request split across three writes...
  ASSERT_TRUE(sock.write_all("sta"));
  ASSERT_TRUE(sock.write_all("t"));
  ASSERT_TRUE(sock.write_all("s\n"));
  EXPECT_EQ(reader.next().rfind("ok\tstats\tn=32\t", 0), 0u);

  // ...a CRLF-framed request (telnet/netcat style)...
  ASSERT_TRUE(sock.write_all("pair intersection 0 1\r\n"));
  EXPECT_EQ(reader.next().rfind("ok\tpair\t0:1=", 0), 0u);

  // ...and two requests in one write: two replies, in order.
  ASSERT_TRUE(sock.write_all("help\nquit\n"));
  EXPECT_EQ(reader.next().rfind("ok\thelp\t", 0), 0u);
  EXPECT_EQ(reader.next(), "bye");
}

TEST_P(ServeTransport, OneByteSegmentsReassembleToTheGoldenTranscript) {
  // The fragmentation torture: the whole golden script delivered one byte
  // per write — every request is split mid-token many times over, and the
  // nonblocking framer must carry state across arbitrarily small reads.
  ServerFixture f(GetParam());
  const std::string script = read_file(data_path("serve_session.txt"));
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  for (const char byte : script) {
    ASSERT_TRUE(sock.write_all(&byte, 1));
  }
  sock.shutdown_write();
  EXPECT_EQ(drain(sock), read_file(data_path("serve_session.expected")));
}

TEST_P(ServeTransport, PipelinedBurstAnswersEveryReplyInOrder) {
  // 64 identical queries coalesced into one segment (one write, one likely
  // recv) must come back as exactly 64 replies in order — the pipelined
  // batch runs through SessionHost::run_batch and must be bit-identical
  // to 64 ping-pong round trips.
  ServerFixture f(GetParam());
  const std::string one =
      run_scripted_session(f.server->port(), "pair intersection 0 1\nquit\n");
  const std::string reply = one.substr(0, one.find("bye\n"));
  ASSERT_EQ(reply.rfind("ok\tpair\t", 0), 0u) << one;

  constexpr int kDepth = 64;
  std::string script;
  std::string expected;
  for (int i = 0; i < kDepth; ++i) {
    script += "pair intersection 0 1\n";
    expected += reply;
  }
  script += "quit\n";
  expected += "bye\n";
  EXPECT_EQ(run_scripted_session(f.server->port(), script), expected);
}

TEST_P(ServeTransport, OversizedLineAnswersErrAndSessionRecovers) {
  net::ServeOptions opts;
  opts.max_line_bytes = 128;
  ServerFixture f(GetParam(), opts);
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);

  // A 4 KiB frame against a 128-byte bound: one err reply, then the
  // session keeps serving from the next line boundary — malformed frames
  // are uniform across transports (err + continue, never a drop).
  std::string garbage(4096, 'x');
  garbage += '\n';
  ASSERT_TRUE(sock.write_all(garbage));
  const std::string err = reader.next();
  EXPECT_EQ(err.rfind("err\t", 0), 0u) << err;
  EXPECT_NE(err.find("128-byte limit"), std::string::npos) << err;

  ASSERT_TRUE(sock.write_all("stats\nquit\n"));
  EXPECT_EQ(reader.next().rfind("ok\tstats\t", 0), 0u);
  EXPECT_EQ(reader.next(), "bye");
}

TEST_P(ServeTransport, InterleavedOverlongFramesEachAnswerOnceAndResync) {
  // Overlong frames interleaved with valid requests in ONE pipelined
  // segment: each oversized frame answers exactly one err line and the
  // frames behind it still answer — the resync state must survive the
  // burst no matter how the transport fragments its reads.
  net::ServeOptions opts;
  opts.max_line_bytes = 128;
  ServerFixture f(GetParam(), opts);

  std::string script;
  script += std::string(300, 'a') + "\n";
  script += "stats\n";
  script += std::string(4096, 'b') + "\n";
  script += "pair intersection 0 1\n";
  script += std::string(200, 'c') + "\n";
  script += "quit\n";
  const std::string transcript = run_scripted_session(f.server->port(), script);

  std::istringstream lines(transcript);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("128-byte limit"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok\tstats\t", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("128-byte limit"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok\tpair\t0:1=", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("128-byte limit"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "bye");
  EXPECT_FALSE(std::getline(lines, line)) << "unexpected trailing reply: " << line;
}

TEST_P(ServeTransport, AbruptDisconnectMidSessionLeavesServerServing) {
  ServerFixture f(GetParam());
  {
    // Fire a scan query and vanish without reading the reply: the server's
    // write hits a dead peer (EPIPE/RST) and must end that session only.
    net::Socket rude = net::connect_to("127.0.0.1", f.server->port());
    ASSERT_TRUE(rude.write_all("tc\ntc\ntc\n"));
    rude.close();
  }
  // The server still answers a full scripted session afterwards.
  const std::string transcript = run_scripted_session(
      f.server->port(), read_file(data_path("serve_session.txt")));
  EXPECT_EQ(transcript, read_file(data_path("serve_session.expected")));
}

TEST_P(ServeTransport, DisconnectWithHalfFlushedOutputBufferIsContained) {
  // A deep pipeline whose replies overflow the kernel buffers (the client
  // never reads), then an abrupt close: the transport is mid-flush with a
  // backlogged output buffer when the peer dies. The failure must be
  // contained to that session — and the server must keep serving.
  ServerFixture f(GetParam());
  {
    net::Socket rude = net::connect_to("127.0.0.1", f.server->port());
    std::string script;
    for (int i = 0; i < 2000; ++i) script += "help\n";
    ASSERT_TRUE(rude.write_all(script));
    // Give the server a beat to start answering into the full pipe.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rude.close();
  }
  const std::string transcript = run_scripted_session(
      f.server->port(), read_file(data_path("serve_session.txt")));
  EXPECT_EQ(transcript, read_file(data_path("serve_session.expected")));
}

TEST_P(ServeTransport, QuitEndsOneSessionNotTheServer) {
  ServerFixture f(GetParam());
  EXPECT_EQ(run_scripted_session(f.server->port(), "quit\n"), "bye\n");
  EXPECT_EQ(run_scripted_session(f.server->port(), "stats\nquit\n").substr(0, 9),
            "ok\tstats\t");
}

TEST_P(ServeTransport, MaxConnsRejectsWithErrLineThenRecovers) {
  net::ServeOptions opts;
  opts.max_conns = 1;
  ServerFixture f(GetParam(), opts);

  // Occupy the single slot and prove the session is live.
  net::Socket held = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader held_reader(held);
  ASSERT_TRUE(held.write_all("stats\n"));
  EXPECT_EQ(held_reader.next().rfind("ok\tstats\t", 0), 0u);

  // The second connection is answered with a capacity err line and closed
  // — distinguishable from both a refused connect and a protocol error.
  {
    net::Socket second = net::connect_to("127.0.0.1", f.server->port());
    const std::string reply = drain(second);
    EXPECT_EQ(reply.rfind("err\tserver at capacity", 0), 0u) << reply;
  }

  // Free the slot; the server accepts again (session teardown is
  // asynchronous on both transports, so poll until the slot is back).
  ASSERT_TRUE(held.write_all("quit\n"));
  EXPECT_EQ(held_reader.next(), "bye");
  held.close();

  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    const std::string reply =
        run_scripted_session(f.server->port(), "stats\nquit\n");
    if (reply.rfind("ok\tstats\t", 0) == 0) {
      served = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served) << "server never freed the capacity slot";
  EXPECT_GE(f.server->counters().rejected, 1u);
}

TEST_P(ServeTransport, RequestStopUnblocksParkedSessions) {
  auto engine = engine::Engine::from_snapshot(data_path("golden.pgs"));
  net::ServeOptions opts;
  opts.engine = &engine;
  auto server = net::make_transport(GetParam(), opts);
  std::thread runner([&] { server->run(); });

  // A connected client that never sends anything more: its session is
  // parked (a blocked read, or an armed-and-idle epoll entry).
  // request_stop() must end it (the client sees EOF) and run() must
  // join/drain everything.
  net::Socket idle = net::connect_to("127.0.0.1", server->port());
  ASSERT_TRUE(idle.write_all("stats\n"));
  ReplyReader reader(idle);
  ASSERT_EQ(reader.next().rfind("ok\tstats\t", 0), 0u);  // live & parked

  server->request_stop();
  runner.join();
  EXPECT_EQ(drain(idle), "");  // EOF, promptly
  const auto c = server->counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.queries_answered, 1u);
}

TEST_P(ServeTransport, MetricsVerbAndTimeClauseWorkOverSockets) {
  ServerFixture f(GetParam());
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);

  // `metrics` answers the one-line tab snapshot in-band...
  ASSERT_TRUE(sock.write_all("metrics\n"));
  const std::string snap = reader.next();
  EXPECT_EQ(snap.rfind("ok\tmetrics\t", 0), 0u) << snap.substr(0, 64);
  EXPECT_NE(snap.find("probgraph_sessions_total="), std::string::npos);

  // ...and the opt-in time clause appends elapsed_us= to its own reply
  // only: the same query without the clause is byte-stable.
  ASSERT_TRUE(sock.write_all("stats time\nstats\nquit\n"));
  const std::string timed = reader.next();
  EXPECT_NE(timed.find("\telapsed_us="), std::string::npos) << timed;
  const std::string plain = reader.next();
  EXPECT_EQ(plain.find("elapsed_us="), std::string::npos) << plain;
  EXPECT_EQ(timed.substr(0, timed.find("\telapsed_us=")), plain);
  EXPECT_EQ(reader.next(), "bye");

  // The metrics reply is not a query: counters still say 2 (stats×2 — the
  // timed one counts; metrics and quit are bookkeeping).
  f.server->request_stop();
  f.thread.join();
  EXPECT_EQ(f.server->counters().queries_answered, 2u);
}

TEST(ServeNet, EphemeralPortIsReportedAndDistinct) {
  auto engine = engine::Engine::from_snapshot(data_path("golden.pgs"));
  net::ServeOptions opts;
  opts.engine = &engine;
  auto a = net::make_transport(net::TransportKind::kThreads, opts);
  auto b = net::make_transport(net::TransportKind::kEpoll, opts);
  EXPECT_NE(a->port(), 0);
  EXPECT_NE(b->port(), 0);
  EXPECT_NE(a->port(), b->port());
}

// --- Reactor-specific scheduling behavior. ---

TEST(ServeNetEpoll, FairnessBoundLimitsRequestsPerTurn) {
  // 64 pipelined requests against a per-turn bound of 4 must take at
  // least 64/4 scheduling turns: the reactor turns counter (delta-able,
  // unlike a histogram max) proves a hog cannot drain its whole backlog
  // in one turn.
  net::ServeOptions opts;
  opts.max_requests_per_turn = 4;
  const std::uint64_t turns_before =
      counter_value("probgraph_reactor_turns_total");

  ServerFixture f(net::TransportKind::kEpoll, opts);
  std::string script;
  for (int i = 0; i < 64; ++i) script += "stats\n";
  script += "quit\n";
  const std::string transcript = run_scripted_session(f.server->port(), script);
  EXPECT_EQ(transcript.rfind("ok\tstats\t", 0), 0u);
  EXPECT_NE(transcript.find("bye\n"), std::string::npos);

  f.server->request_stop();
  f.thread.join();
  const std::uint64_t turns =
      counter_value("probgraph_reactor_turns_total") - turns_before;
  EXPECT_GE(turns, 65u / 4u) << "a single turn drained more than the bound";
  EXPECT_EQ(f.server->counters().queries_answered, 64u);
}

TEST(ServeNetEpoll, PipeliningHogSharesTheOnlyWorkerWithAVictim) {
  // One worker, a tiny fairness bound, and a hog that pipelines a deep
  // backlog WITHOUT reading replies: a victim session arriving mid-burst
  // must still be answered (the hog re-queues at the tail every turn).
  net::ServeOptions opts;
  opts.workers = 1;
  opts.max_requests_per_turn = 2;
  ServerFixture f(net::TransportKind::kEpoll, opts);

  net::Socket hog = net::connect_to("127.0.0.1", f.server->port());
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += "stats\n";
  ASSERT_TRUE(hog.write_all(burst));

  // The victim's whole session completes while the hog's backlog drains.
  const std::string victim =
      run_scripted_session(f.server->port(), "stats\nquit\n");
  EXPECT_EQ(victim.rfind("ok\tstats\t", 0), 0u) << victim;
  EXPECT_NE(victim.find("bye\n"), std::string::npos);

  // The hog still gets every reply, in order.
  ASSERT_TRUE(hog.write_all("quit\n"));
  hog.shutdown_write();
  const std::string hog_replies = drain(hog);
  std::size_t ok_count = 0;
  for (std::size_t at = hog_replies.find("ok\tstats\t"); at != std::string::npos;
       at = hog_replies.find("ok\tstats\t", at + 1)) {
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 200u);
  EXPECT_NE(hog_replies.find("bye\n"), std::string::npos);
}

// --- Observability over the socket transport. ---

/// One HTTP/1.0 GET against the scrape endpoint; returns the raw response
/// (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target) {
  net::Socket sock = net::connect_to("127.0.0.1", port);
  EXPECT_TRUE(sock.write_all("GET " + target + " HTTP/1.0\r\n\r\n"));
  return drain(sock);
}

TEST(ServeNet, MetricsScrapeRacesFourClientsWithoutPerturbingReplies) {
  // The acceptance workload with a scraper in the mix: 4 scripted clients
  // against one mapping while an HTTP client hammers GET /metrics. Every
  // session transcript must stay byte-identical to the golden expectation
  // (scrapes never touch reply bytes), and every scrape must be a valid
  // Prometheus exposition carrying the per-query-type latency quantiles
  // and the substrate-routing counters. This test also runs under the
  // TSan CI job: scrape-side shard merges racing writer sessions is
  // exactly the access pattern the relaxed-atomic design must keep clean.
  ServerFixture f(net::TransportKind::kThreads);
  obs::MetricsHttpServer scraper(/*port=*/0);
  std::thread scraper_thread([&] { scraper.run(); });

  const std::string script = read_file(data_path("serve_session.txt"));
  const std::string expected = read_file(data_path("serve_session.expected"));

  constexpr int kClients = 4;
  std::vector<std::string> transcripts(kClients);
  std::atomic<bool> done{false};
  std::string last_scrape;
  std::thread scrape_client([&] {
    while (!done.load()) {
      const std::string resp = http_get(scraper.port(), "/metrics");
      EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << resp.substr(0, 64);
      last_scrape = resp;
    }
  });
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        transcripts[static_cast<std::size_t>(i)] =
            run_scripted_session(f.server->port(), script);
      });
    }
    for (auto& t : clients) t.join();
  }
  done.store(true);
  scrape_client.join();

  // One more scrape taken after the sessions finished (and before the
  // scraper stops accepting), so the assertions below see their queries
  // for certain — the raced scrapes above only needed to return 200.
  const std::string body = http_get(scraper.port(), "/metrics");
  scraper.request_stop();
  scraper_thread.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(transcripts[static_cast<std::size_t>(i)], expected)
        << "client " << i << " transcript diverges under scraping";
  }
  EXPECT_GE(scraper.scrapes_served(), 1u);
  EXPECT_NE(body.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE probgraph_queries_total counter"),
            std::string::npos);
  EXPECT_NE(
      body.find("probgraph_query_latency_seconds{type=\"tc\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(body.find("probgraph_query_substrate_total{kind=\"bf\","
                      "orientation=\"dag\"}"),
            std::string::npos);
  EXPECT_NE(body.find("probgraph_session_bytes_total{direction=\"out\"}"),
            std::string::npos);
}

TEST(ServeNet, MetricsHttpRejectsOtherMethodsAndPaths) {
  obs::MetricsHttpServer scraper(/*port=*/0);
  std::thread runner([&] { scraper.run(); });
  EXPECT_EQ(http_get(scraper.port(), "/nope").rfind("HTTP/1.0 404", 0), 0u);
  {
    net::Socket sock = net::connect_to("127.0.0.1", scraper.port());
    ASSERT_TRUE(sock.write_all("POST /metrics HTTP/1.0\r\n\r\n"));
    EXPECT_EQ(drain(sock).rfind("HTTP/1.0 405", 0), 0u);
  }
  scraper.request_stop();
  runner.join();
}

TEST(ServeNet, OverlongSocketFramesCountTheOverlongCause) {
  // The socket transport's oversized-frame path must land in the
  // cause="overlong" bucket — distinct from parse failures — so protocol
  // abuse is tellable from client bugs in the scrape output.
  const obs::Labels overlong{{"cause", "overlong"}};
  const obs::Labels parse{{"cause", "parse"}};
  const std::uint64_t overlong_before =
      counter_value("probgraph_session_errors_total", overlong);
  const std::uint64_t parse_before =
      counter_value("probgraph_session_errors_total", parse);

  net::ServeOptions opts;
  opts.max_line_bytes = 128;
  ServerFixture f(net::TransportKind::kThreads, opts);
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);

  std::string garbage(4096, 'x');
  garbage += '\n';
  ASSERT_TRUE(sock.write_all(garbage));
  EXPECT_EQ(reader.next().rfind("err\t", 0), 0u);
  ASSERT_TRUE(sock.write_all("not-a-verb\nquit\n"));
  EXPECT_EQ(reader.next().rfind("err\t", 0), 0u);
  EXPECT_EQ(reader.next(), "bye");
  f.server->request_stop();
  f.thread.join();

  EXPECT_EQ(counter_value("probgraph_session_errors_total", overlong) -
                overlong_before,
            1u);
  EXPECT_EQ(counter_value("probgraph_session_errors_total", parse) -
                parse_before,
            1u);
}

}  // namespace
}  // namespace probgraph
