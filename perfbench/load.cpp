// pgbench load: the closed-loop client of the serve and live workloads.
//
// One process, one thread per connection. Each reader connection sends its
// slice of D/requests.txt in a loop, one request in flight, and checks every
// reply byte for byte against D/expected.txt (or, when a writer changes the
// graph, D/expected_mod.txt). With --writer 1 one more connection repeats
// the cycle: stage the D/edges.txt inserts, seal, probe, stage the same
// edges as deletes, seal, probe (D/probe.txt). Every second seal returns
// the graph to its base state, so the run stays steady however long it is.
// The writer always finishes its cycle, leaving the server on the base
// graph. --readers 0 --writer 1 times seals alone.
//
// The load runs in rounds, and the connections stay open between them. Each
// line "WARMUP SECONDS" on stdin starts a round: WARMUP seconds untimed,
// then SECONDS timed. When every connection has finished the round, "done"
// goes to stdout. At the end of stdin the client closes its connections and
// prints one JSON object: reply tallies per role, the timed seconds, the
// seal latencies. Reader round trips of the timed windows go to --lat FILE,
// grouped by --slice-ms window of their send time, the windows of one round
// after those of the round before: per window a count, then that many round
// trips (all native uint64, nanoseconds). A round's last partial window is
// left out.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pgbench.hpp"

namespace pgbench {

namespace {

constexpr int kReplyTimeoutMs = 20000;

class Conn {
 public:
  explicit Conn(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) + " failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Send one request line and wait for its reply line; nullopt when the
  /// server closed the connection or did not answer in time.
  std::optional<std::string> ask(const std::string& line) {
    out_ = line;
    out_.push_back('\n');
    std::size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return reply;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kReplyTimeoutMs) <= 0) return std::nullopt;
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return std::nullopt;
      in_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string out_;
  std::string in_;
};

struct RoleResult {
  Tally tally;
  // readers: (window index, round trip) of the timed windows
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_ns;
  std::vector<double> seal_ms;              // writer: seals in the window
  std::string first_failure;
};

void note_failure(RoleResult& r, Verdict v, const std::string& request,
                  const std::optional<std::string>& got) {
  if (v == Verdict::kOk || !r.first_failure.empty()) return;
  r.first_failure = std::string(verdict_name(v)) + ": " + request + " -> " +
                    (got ? *got : std::string("<no reply>"));
}

/// One round: untimed until warm_end_ns, timed until deadline_ns. Its
/// timed windows are numbered from first_window on.
struct Round {
  std::uint64_t warm_end_ns = 0;
  std::uint64_t deadline_ns = 0;
  std::uint64_t first_window = 0;
  std::uint64_t windows = 0;  // whole windows in the timed part
};

/// Starts rounds for the connection threads and waits until each of them
/// has finished the round or left (after a failure).
class Rounds {
 public:
  explicit Rounds(std::size_t threads) : active_(threads) {}

  /// Main thread: run one round to its end.
  void run(const Round& round) {
    std::unique_lock<std::mutex> lock(mu_);
    round_ = round;
    ++started_;
    finished_ = 0;
    cv_.notify_all();
    cv_.wait(lock, [&] { return finished_ == active_; });
  }
  /// Main thread: no more rounds.
  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }
  /// Connection thread: wait for round number `n` (from 1); false once closed.
  bool wait(std::uint64_t n, Round& round) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n || closed_; });
    round = round_;
    return started_ >= n;
  }
  /// Connection thread: this round is done.
  void finish() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    cv_.notify_all();
  }
  /// Connection thread: done for good; no later round waits for it.
  void leave() {
    const std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  Round round_;
  std::uint64_t started_ = 0;
  std::size_t finished_ = 0;
  std::size_t active_;
  bool closed_ = false;
};

struct Plan {
  std::uint16_t port = 0;
  std::uint64_t slice_ns = 0;
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  std::vector<std::string> expected_mod;  // empty unless a writer runs
  std::vector<std::string> edges;         // "u v" lines
  std::vector<std::string> probe;         // request, base reply, updated reply
};

void run_reader(const Plan& plan, Rounds& rounds, std::size_t begin, std::size_t end,
                RoleResult& out) {
  Conn conn(plan.port);
  out.samples_ns.reserve(1 << 20);
  std::size_t j = begin;
  Round current;
  for (std::uint64_t n = 1; rounds.wait(n, current); ++n) {
    for (;; j = (j + 1 == end) ? begin : j + 1) {
      const std::uint64_t t0 = now_ns();
      if (t0 >= current.deadline_ns) break;
      const std::optional<std::string> got = conn.ask(plan.requests[j]);
      const std::uint64_t t1 = now_ns();
      const Verdict v =
          plan.expected_mod.empty()
              ? check_reply(got, plan.expected[j])
              : check_reply(got, plan.expected[j], std::string_view(plan.expected_mod[j]));
      out.tally.add(v);
      note_failure(out, v, plan.requests[j], got);
      const std::uint64_t window = t0 >= current.warm_end_ns
                                       ? (t0 - current.warm_end_ns) / plan.slice_ns
                                       : current.windows;
      if (window < current.windows && v == Verdict::kOk) {
        out.samples_ns.emplace_back(current.first_window + window, t1 - t0);
      }
      if (v == Verdict::kMissing) return;  // the caller leaves the rounds
    }
    rounds.finish();
  }
}

// The value of `key=` in a tab-separated reply, or -1.
long long field(const std::string& reply, const std::string& key) {
  const std::string needle = "\t" + key + "=";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(reply.c_str() + at + needle.size());
}

void run_writer(const Plan& plan, Rounds& rounds, RoleResult& out) {
  Conn conn(plan.port);
  Round current;
  std::string insert = "update insert";
  std::string erase = "update delete";
  for (const std::string& e : plan.edges) {
    insert += ' ' + e;
    erase += ' ' + e;
  }
  const std::string count = std::to_string(plan.edges.size());
  // One step: send, classify (ok iff `accept` holds), record, stop on missing.
  const auto step = [&](const std::string& req, auto accept) -> std::optional<std::string> {
    std::optional<std::string> got = conn.ask(req);
    Verdict v = Verdict::kMissing;
    if (got) {
      v = accept(*got) ? Verdict::kOk
                       : (got->rfind("err", 0) == 0 ? Verdict::kErr : Verdict::kWrong);
    }
    out.tally.add(v);
    note_failure(out, v, req.substr(0, 40), got);
    return v == Verdict::kOk ? got : std::nullopt;
  };
  const auto seal = [&](const char* applied) {
    const std::uint64_t t0 = now_ns();
    const auto got = step("update seal", [&](const std::string& r) {
      return r.rfind("ok\tupdate\tsealed\t", 0) == 0 &&
             field(r, applied) == static_cast<long long>(plan.edges.size());
    });
    const std::uint64_t t1 = now_ns();
    if (got && t0 >= current.warm_end_ns) out.seal_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    return got.has_value();
  };
  const auto probe = [&](const std::string& want) {
    return step(plan.probe[0], [&](const std::string& r) { return r == want; }).has_value();
  };
  for (std::uint64_t n = 1; rounds.wait(n, current); ++n) {
    while (now_ns() < current.deadline_ns) {
      const bool ok =
          step(insert, [&](const std::string& reply) {
            return reply.rfind("ok\tupdate\tstaged=insert\tedges=" + count + "\t", 0) == 0;
          }).has_value() &&
          seal("applied_inserts") && probe(plan.probe[2]) &&
          step(erase, [&](const std::string& reply) {
            return reply.rfind("ok\tupdate\tstaged=delete\tedges=" + count + "\t", 0) == 0;
          }).has_value() &&
          seal("applied_deletes") && probe(plan.probe[1]);
      if (!ok) return;  // the caller leaves the rounds
    }
    rounds.finish();
  }
}

void print_tally(const char* name, const RoleResult& r, bool last) {
  std::printf(
      "\"%s\": {\"attempted\": %llu, \"ok\": %llu, \"err\": %llu, \"wrong\": %llu, "
      "\"missing\": %llu, \"first_failure\": \"",
      name, static_cast<unsigned long long>(r.tally.attempted),
      static_cast<unsigned long long>(r.tally.ok), static_cast<unsigned long long>(r.tally.err),
      static_cast<unsigned long long>(r.tally.wrong),
      static_cast<unsigned long long>(r.tally.missing));
  for (const char c : r.first_failure) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\t' ? ' ' : c);
  }
  std::printf("\"}%s", last ? "" : ", ");
}

}  // namespace

int cmd_load(const Flags& f) {
  const std::filesystem::path dir = flag(f, "dir");
  Plan plan;
  plan.port = static_cast<std::uint16_t>(flag_u64(f, "port"));
  plan.slice_ns = flag_u64(f, "slice-ms") * 1000000;
  plan.requests = read_lines(dir / "requests.txt");
  plan.expected = read_lines(dir / "expected.txt");
  const std::size_t readers = flag_u64(f, "readers");
  const bool writer = flag_u64(f, "writer") != 0;
  if (writer) {
    plan.expected_mod = read_lines(dir / "expected_mod.txt");
    plan.edges = read_lines(dir / "edges.txt");
    plan.probe = read_lines(dir / "probe.txt");
    if (plan.probe.size() != 3) throw std::runtime_error("probe.txt needs three lines");
  }
  if (plan.requests.size() != plan.expected.size() || plan.requests.size() < readers) {
    throw std::runtime_error("request and expected reply files do not match");
  }
  if (readers == 0 && !writer) throw std::runtime_error("no connection to run");
  if (plan.slice_ns == 0) throw std::runtime_error("--slice-ms must be positive");

  std::vector<RoleResult> results(readers + (writer ? 1 : 0));
  Rounds rounds(results.size());
  std::vector<std::thread> threads;
  int failed_threads = 0;  // written by the threads under fail_mu
  std::mutex fail_mu;
  // Runs one connection's role; on a failure it records it and leaves the
  // rounds, so that no round waits for a connection that is gone.
  const auto guarded = [&](RoleResult& out, auto role) {
    try {
      role();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(fail_mu);
      out.first_failure = e.what();
      ++failed_threads;
    }
    rounds.leave();
  };
  const std::size_t slice = readers == 0 ? 0 : plan.requests.size() / readers;
  for (std::size_t i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      guarded(results[i], [&] { run_reader(plan, rounds, i * slice, (i + 1) * slice, results[i]); });
    });
  }
  if (writer) {
    threads.emplace_back(
        [&] { guarded(results.back(), [&] { run_writer(plan, rounds, results.back()); }); });
  }

  Round round;
  double timed_s = 0;
  for (std::string line; std::getline(std::cin, line);) {
    double warmup = 0, seconds = 0;
    if (std::sscanf(line.c_str(), "%lf %lf", &warmup, &seconds) != 2 || warmup < 0 ||
        seconds <= 0) {
      throw std::runtime_error("expected a round \"WARMUP SECONDS\" on stdin, got: " + line);
    }
    round.first_window += round.windows;
    round.warm_end_ns = now_ns() + static_cast<std::uint64_t>(warmup * 1e9);
    round.deadline_ns = round.warm_end_ns + static_cast<std::uint64_t>(seconds * 1e9);
    round.windows = static_cast<std::uint64_t>(seconds * 1e9) / plan.slice_ns;
    rounds.run(round);
    timed_s += seconds;
    std::printf("done\n");
    std::fflush(stdout);
  }
  rounds.close();
  for (std::thread& t : threads) t.join();

  std::vector<std::vector<std::uint64_t>> windows(round.first_window + round.windows);
  RoleResult all_readers;
  for (std::size_t i = 0; i < readers; ++i) {
    all_readers.tally.merge(results[i].tally);
    if (all_readers.first_failure.empty()) all_readers.first_failure = results[i].first_failure;
    for (const auto& [window, rtt] : results[i].samples_ns) windows[window].push_back(rtt);
  }
  std::ofstream lat(flag(f, "lat"), std::ios::binary | std::ios::trunc);
  for (const std::vector<std::uint64_t>& w : windows) {
    const std::uint64_t count = w.size();
    lat.write(reinterpret_cast<const char*>(&count), sizeof count);
    lat.write(reinterpret_cast<const char*>(w.data()),
              static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  }
  if (!lat.flush()) throw std::runtime_error("cannot write " + flag(f, "lat"));

  std::printf("{\"window_s\": %.6f, \"failed_threads\": %d, ", timed_s, failed_threads);
  print_tally("readers", all_readers, false);
  if (writer) {
    print_tally("writer", results.back(), false);
    std::printf("\"seal_ms\": [");
    const std::vector<double>& s = results.back().seal_ms;
    for (std::size_t i = 0; i < s.size(); ++i) std::printf("%s%.6f", i ? ", " : "", s[i]);
    std::printf("], ");
  }
  std::printf("\"readers_n\": %zu}\n", readers);
  return 0;
}

}  // namespace pgbench
