// Live serving over real sockets: concurrent query sessions racing a
// writer that stages batches and reseals generations (the TSan CI
// workload for src/engine/generation.hpp's epoch-swap protocol).
//
// The correctness bar mirrors tests/test_live.cpp, observed end to end
// over the wire: every reply a racing client sees belongs to some WHOLE
// generation (never a partial batch), and once the final seal lands the
// served estimates are byte-identical to a from-scratch cold build of the
// final edge list. Replies are bitwise deterministic only at one OpenMP
// thread, so the suite pins util::set_threads(1).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "io/snapshot.hpp"
#include "live/delta.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "serve_helpers.hpp"
#include "util/threading.hpp"

namespace probgraph {
namespace {

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

class TempPath {
 public:
  explicit TempPath(const std::string& suffix) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "probgraph_live_serve_" +
            std::to_string(++counter) + suffix;
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

const std::vector<SketchKind> kAllKinds{SketchKind::kBloomFilter, SketchKind::kKHash,
                                        SketchKind::kOneHash,
                                        SketchKind::kKmv};

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

std::vector<Edge> edit_edges(std::vector<Edge> edges, const live::DeltaBatch& batch) {
  const auto norm = [](Edge e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  std::set<Edge> set;
  for (const Edge& e : edges) set.insert(norm(e));
  for (const Edge& e : batch.inserts) set.insert(norm(e));
  for (const Edge& e : batch.deletes) set.erase(norm(e));
  return {set.begin(), set.end()};
}

/// Build the 4-kind × both-orientations snapshot of `edges` and return the
/// in-process replay of `script` against it — the cold-build
/// reference every live reply is compared to.
std::string cold_transcript(const std::vector<Edge>& edges, VertexId n,
                            const std::string& script) {
  TempPath path(".pgs");
  const CsrGraph g = GraphBuilder::from_edges(edges, n);
  const io::SubstrateSet set =
      io::build_substrates(g, kAllKinds, /*symmetric=*/true, /*degree_oriented=*/true);
  io::save_snapshot(path.str(), set.substrates);
  engine::Engine e = engine::Engine::from_snapshot(path.str());
  return serve_test::replay(e, script).replies;
}

/// One live server over a fresh golden snapshot, run()ning on a background
/// thread for the duration of a test.
struct LiveServerFixture {
  explicit LiveServerFixture(
      net::TransportKind kind = net::TransportKind::kThreads)
      : snap_path(".pgs"), live(build_snapshot(snap_path.str())) {
    net::ServeOptions opts;
    opts.live = &live;
    server = net::make_transport(kind, opts);
    thread = std::thread([this] { server->run(); });
  }

  ~LiveServerFixture() {
    server->request_stop();
    if (thread.joinable()) thread.join();
  }

  /// Builds the snapshot file and hands the path through to LiveEngine.
  static const std::string& build_snapshot(const std::string& path) {
    const CsrGraph g = io::read_edge_list(data_path("golden.el"));
    const io::SubstrateSet set = io::build_substrates(
        g, kAllKinds, /*symmetric=*/true, /*degree_oriented=*/true);
    io::save_snapshot(path, set.substrates);
    return path;
  }

  TempPath snap_path;
  engine::LiveEngine live;
  std::unique_ptr<net::Transport> server;
  std::thread thread;
};

TEST(LiveServe, UpdateVerbsStageAndSealOverTheWire) {
  LiveServerFixture f;
  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);

  ASSERT_TRUE(sock.write_all("epoch\n"));
  EXPECT_EQ(reader.next(),
            "ok\tepoch\tgeneration=1\tpending_inserts=0\tpending_deletes=0");

  ASSERT_TRUE(sock.write_all("update insert 0 9 3 17\n"));
  EXPECT_EQ(reader.next(),
            "ok\tupdate\tstaged=insert\tedges=2\tpending_inserts=2\t"
            "pending_deletes=0");
  ASSERT_TRUE(sock.write_all("update delete 0 1\n"));
  EXPECT_EQ(reader.next(),
            "ok\tupdate\tstaged=delete\tedges=1\tpending_inserts=2\t"
            "pending_deletes=1");

  // Staged changes are INVISIBLE until sealed: still generation 1 replies.
  const std::string pre_seal = cold_transcript(golden_edges(), 32, "tc\nquit\n");
  ASSERT_TRUE(sock.write_all("tc\n"));
  EXPECT_EQ(reader.next() + "\n",
            pre_seal.substr(0, pre_seal.find("bye")));

  ASSERT_TRUE(sock.write_all("update seal\n"));
  const std::string sealed = reader.next();
  EXPECT_EQ(sealed.rfind("ok\tupdate\tsealed\tgeneration=2\tapplied_inserts=2\t"
                         "applied_deletes=1",
                         0),
            0u)
      << sealed;

  ASSERT_TRUE(sock.write_all("epoch\nupdate seal\nquit\n"));
  EXPECT_EQ(reader.next(),
            "ok\tepoch\tgeneration=2\tpending_inserts=0\tpending_deletes=0");
  EXPECT_EQ(reader.next(), "ok\tupdate\tnoop\tgeneration=2");
  EXPECT_EQ(reader.next(), "bye");

  // Post-swap, a full multi-kind session must be byte-identical to the
  // cold build of the updated edge list.
  const live::DeltaBatch batch{{{0, 9}, {3, 17}}, {{0, 1}}};
  const std::string script =
      "tc\ntc kind=kmv\ntc kind=kh\ntc kind=1h\n4cc\ncc\ncc kind=kmv\n"
      "cluster jaccard 0.1\npair jaccard 0 9\nlp 5 common\nstats\nquit\n";
  EXPECT_EQ(run_scripted_session(f.server->port(), script),
            cold_transcript(edit_edges(golden_edges(), batch), 32, script));
}

TEST(LiveServe, UpdateVerbsStageAndSealOverTheEpollTransport) {
  // The same stage → seal → query flow over the reactor, with the whole
  // session PIPELINED into one segment: the epoll transport must accept
  // the live verbs, order them against the queries, and answer the final
  // multi-kind script byte-identical to the cold build — exactly like the
  // thread-per-connection transport above.
  LiveServerFixture f(net::TransportKind::kEpoll);

  const std::string flow =
      "epoch\nupdate insert 0 9 3 17\nupdate delete 0 1\nupdate seal\n"
      "epoch\nquit\n";
  const std::string transcript = run_scripted_session(f.server->port(), flow);
  std::istringstream lines(transcript);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ok\tepoch\tgeneration=1\tpending_inserts=0\tpending_deletes=0");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "ok\tupdate\tstaged=insert\tedges=2\tpending_inserts=2\t"
            "pending_deletes=0");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "ok\tupdate\tstaged=delete\tedges=1\tpending_inserts=2\t"
            "pending_deletes=1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok\tupdate\tsealed\tgeneration=2\tapplied_inserts=2\t"
                       "applied_deletes=1",
                       0),
            0u)
      << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ok\tepoch\tgeneration=2\tpending_inserts=0\tpending_deletes=0");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "bye");

  const live::DeltaBatch batch{{{0, 9}, {3, 17}}, {{0, 1}}};
  const std::string script =
      "tc\ntc kind=kmv\ntc kind=kh\ntc kind=1h\n4cc\ncc\ncc kind=kmv\n"
      "cluster jaccard 0.1\npair jaccard 0 9\nlp 5 common\nstats\nquit\n";
  EXPECT_EQ(run_scripted_session(f.server->port(), script),
            cold_transcript(edit_edges(golden_edges(), batch), 32, script));
}

TEST(LiveServe, UpdateRejectsTheMaxVertexIdAndKeepsAnswering) {
  // 4294967295 has no vertex count; staging it once crashed the seal.
  LiveServerFixture f;
  const std::string transcript = run_scripted_session(
      f.server->port(), "update insert 4294967295 1\nupdate seal\nepoch\nstats\nquit\n");
  std::istringstream lines(transcript);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("err\t", 0), 0u) << line;
  EXPECT_NE(line.find("4294967295"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ok\tupdate\tnoop\tgeneration=1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ok\tepoch\tgeneration=1\tpending_inserts=0\tpending_deletes=0");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok\tstats\t", 0), 0u) << line;
}

TEST(LiveServe, StaticServerRejectsUpdateVerbs) {
  engine::Engine eng = engine::Engine::from_snapshot(data_path("golden.pgs"));
  net::ServeOptions opts;
  opts.engine = &eng;
  auto server = net::make_transport(net::TransportKind::kThreads, opts);
  std::thread runner([&] { server->run(); });

  const std::string transcript = run_scripted_session(
      server->port(), "update insert 0 9\nepoch\nstats\nquit\n");
  server->request_stop();
  runner.join();

  std::istringstream lines(transcript);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("err\t", 0), 0u) << line;
  EXPECT_NE(line.find("--live"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("err\t", 0), 0u) << line;
  // The session recovers: plain queries keep working.
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ok\tstats\t", 0), 0u) << line;
}

TEST(LiveServe, ConcurrentSessionsAcrossResealsSeeOnlyWholeGenerations) {
  // The acceptance workload: 4 query clients hammering one live server
  // while a writer session stages three batches and reseals after each.
  // Consistency is per QUERY (each reply pins one generation), not per
  // session: a seal landing between a session's tc and cc legitimately
  // answers them from consecutive generations. What must hold for every
  // reply is that it matches SOME generation's cold build — a reply
  // matching none (a torn batch, a stale cache, a half-swapped pointer)
  // is the bug — and that the generations a session observes never move
  // backwards. Runs under the TSan CI job, where the sanitizer's ~10x
  // slowdown widens the between-queries window until swaps actually land
  // there.
  LiveServerFixture f;

  const std::vector<live::DeltaBatch> batches{
      {{{0, 3}, {1, 4}}, {}},
      {{{2, 5}, {6, 9}}, {}},
      {{{7, 10}}, {{0, 1}}},
  };
  const std::string probe = "tc\ncc\nquit\n";

  // Each generation's expected probe reply lines: {tc line, cc line}.
  std::vector<std::array<std::string, 2>> expected;
  std::vector<Edge> edges = golden_edges();
  const auto probe_lines = [&](const std::vector<Edge>& es) {
    std::istringstream t(cold_transcript(es, 32, probe));
    std::array<std::string, 2> lines;
    EXPECT_TRUE(std::getline(t, lines[0]));
    EXPECT_TRUE(std::getline(t, lines[1]));
    return lines;
  };
  expected.push_back(probe_lines(edges));
  for (const live::DeltaBatch& b : batches) {
    edges = edit_edges(std::move(edges), b);
    expected.push_back(probe_lines(edges));
  }

  std::atomic<bool> stop{false};
  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> transcripts(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto& mine = transcripts[static_cast<std::size_t>(i)];
      while (!stop.load()) {
        mine.push_back(run_scripted_session(f.server->port(), probe));
      }
    });
  }

  // The writer: one session, three stage+seal rounds, each acknowledged
  // before the next so generations advance 1 → 2 → 3 → 4.
  {
    net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
    ReplyReader reader(sock);
    for (const live::DeltaBatch& b : batches) {
      std::string req = "update insert";
      for (const Edge& e : b.inserts) {
        req += " " + std::to_string(e.first) + " " + std::to_string(e.second);
      }
      req += "\n";
      ASSERT_TRUE(sock.write_all(req));
      EXPECT_EQ(reader.next().rfind("ok\tupdate\tstaged=insert", 0), 0u);
      if (!b.deletes.empty()) {
        req = "update delete";
        for (const Edge& e : b.deletes) {
          req += " " + std::to_string(e.first) + " " + std::to_string(e.second);
        }
        req += "\n";
        ASSERT_TRUE(sock.write_all(req));
        EXPECT_EQ(reader.next().rfind("ok\tupdate\tstaged=delete", 0), 0u);
      }
      ASSERT_TRUE(sock.write_all("update seal\n"));
      EXPECT_EQ(reader.next().rfind("ok\tupdate\tsealed\t", 0), 0u);
      // Let the clients observe this generation before the next seal.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_TRUE(sock.write_all("quit\n"));
    EXPECT_EQ(reader.next(), "bye");
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  // Every racing reply is EXACTLY one generation's, and the generations a
  // session sees are non-decreasing (the epoch only advances).
  std::size_t total = 0;
  for (int i = 0; i < kClients; ++i) {
    for (const std::string& t : transcripts[static_cast<std::size_t>(i)]) {
      ++total;
      std::istringstream lines(t);
      std::string tc_line, cc_line, bye;
      ASSERT_TRUE(std::getline(lines, tc_line) && std::getline(lines, cc_line) &&
                  std::getline(lines, bye))
          << "client " << i << " got a short transcript:\n" << t;
      EXPECT_EQ(bye, "bye");
      bool known = false;
      for (std::size_t g = 0; g < expected.size(); ++g) {
        if (tc_line != expected[g][0]) continue;
        // The cc reply may come from the tc's generation or any LATER one
        // (a seal between the two queries), never an earlier one.
        for (std::size_t h = g; h < expected.size(); ++h) {
          known = known || cc_line == expected[h][1];
        }
      }
      EXPECT_TRUE(known) << "client " << i
                         << " saw a reply matching no generation (or a "
                            "generation moving backwards):\n"
                         << t;
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(f.live.generation(), 4u);

  // After the last seal the server must serve generation 4 exactly.
  EXPECT_EQ(run_scripted_session(f.server->port(), probe),
            expected.back()[0] + "\n" + expected.back()[1] + "\nbye\n");
}

TEST(LiveServe, LongSessionPinsAcrossSwapsReplyByReply) {
  // One session issuing queries one at a time while seals land between
  // them: each reply individually matches some whole generation (the
  // per-query Pin), and replies after the seal match the NEW one.
  LiveServerFixture f;
  const std::string tc_gen1 = cold_transcript(golden_edges(), 32, "tc\nquit\n");
  const live::DeltaBatch batch{{{0, 3}, {1, 4}}, {}};
  const std::string tc_gen2 =
      cold_transcript(edit_edges(golden_edges(), batch), 32, "tc\nquit\n");
  const auto tc_line = [](const std::string& transcript) {
    return transcript.substr(0, transcript.find('\n'));
  };

  net::Socket sock = net::connect_to("127.0.0.1", f.server->port());
  ReplyReader reader(sock);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sock.write_all("tc\n"));
    EXPECT_EQ(reader.next(), tc_line(tc_gen1));
  }
  f.live.stage(/*tombstone=*/false, batch.inserts);
  ASSERT_TRUE(f.live.seal().sealed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sock.write_all("tc\n"));
    EXPECT_EQ(reader.next(), tc_line(tc_gen2));
  }
  ASSERT_TRUE(sock.write_all("quit\n"));
  EXPECT_EQ(reader.next(), "bye");
}

}  // namespace
}  // namespace probgraph
