#include "engine/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <vector>

#include "net/line_scanner.hpp"
#include "obs/metrics.hpp"
#include "util/ascii.hpp"
#include "util/timer.hpp"

namespace probgraph::engine {

namespace {

using util::iequals;

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '\r') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Strict unsigned parse: the whole token must be digits.
template <typename T>
bool parse_unsigned(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Strict finite parse: std::from_chars happily accepts "nan" and "inf",
/// and a non-finite threshold silently poisons every comparison downstream
/// ("cluster jaccard nan" would reply ok with zero kept edges) — reject it
/// here so the session answers with a descriptive err line instead.
bool parse_double(std::string_view s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(out);
}

/// Pop a trailing "exact" token if present.
bool take_exact(std::vector<std::string_view>& tokens) {
  if (!tokens.empty() && iequals(tokens.back(), "exact")) {
    tokens.pop_back();
    return true;
  }
  return false;
}

/// Extract one `kind=SKETCH` clause from anywhere in the token list.
/// Returns false (with `error` set) on an unknown sketch name or a
/// duplicate clause; `out` stays nullopt when no clause is present.
bool take_sketch_kind(std::vector<std::string_view>& tokens,
                      std::optional<SketchKind>& out, std::string& error) {
  for (auto it = tokens.begin(); it != tokens.end();) {
    const std::string_view t = *it;
    if (t.size() < 5 || !iequals(t.substr(0, 5), "kind=")) {
      ++it;
      continue;
    }
    if (out) {
      error = "duplicate kind= clause";
      return false;
    }
    const std::string_view value = t.substr(5);
    const auto kind = parse_sketch_kind(value);
    if (!kind) {
      error = "unknown sketch kind '" + std::string(value) +
              "' in kind= (expected bf, kh, 1h, or kmv)";
      return false;
    }
    out = *kind;
    it = tokens.erase(it);
  }
  return true;
}

/// Extract one `time` clause from anywhere in the token list. Returns
/// false (with `error` set) on a duplicate.
bool take_time(std::vector<std::string_view>& tokens, bool& out,
               std::string& error) {
  for (auto it = tokens.begin(); it != tokens.end();) {
    if (!iequals(*it, "time")) {
      ++it;
      continue;
    }
    if (out) {
      error = "duplicate time clause";
      return false;
    }
    out = true;
    it = tokens.erase(it);
  }
  return true;
}

ParsedRequest make_error(std::string message) {
  ParsedRequest r;
  r.error = std::move(message);
  return r;
}

ParsedRequest make_query(Query q, bool report_time) {
  ParsedRequest r;
  r.query = std::move(q);
  r.report_time = report_time;
  return r;
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty() || tokens.front().front() == '#') {
    ParsedRequest r;
    r.ignored = true;
    return r;
  }
  const std::string_view cmd = tokens.front();
  tokens.erase(tokens.begin());

  if (iequals(cmd, "quit") || iequals(cmd, "exit")) {
    if (!tokens.empty()) return make_error("quit takes no arguments");
    ParsedRequest r;
    r.quit = true;
    return r;
  }
  if (iequals(cmd, "help")) {
    ParsedRequest r;
    r.help = true;
    return r;
  }
  if (iequals(cmd, "metrics")) {
    if (!tokens.empty()) return make_error("metrics takes no arguments");
    ParsedRequest r;
    r.metrics = true;
    return r;
  }

  if (iequals(cmd, "epoch")) {
    if (!tokens.empty()) return make_error("epoch takes no arguments");
    ParsedRequest r;
    r.live = LiveRequest{LiveRequest::Op::kEpoch, {}};
    return r;
  }
  if (iequals(cmd, "update")) {
    if (tokens.empty()) {
      return make_error("usage: update insert|delete U V [U V ...] | update seal");
    }
    const std::string_view sub = tokens.front();
    tokens.erase(tokens.begin());
    if (iequals(sub, "seal")) {
      if (!tokens.empty()) return make_error("update seal takes no arguments");
      ParsedRequest r;
      r.live = LiveRequest{LiveRequest::Op::kSeal, {}};
      return r;
    }
    const bool is_insert = iequals(sub, "insert");
    if (!is_insert && !iequals(sub, "delete")) {
      return make_error("unknown update op '" + std::string(sub) +
                        "' (expected insert, delete, or seal)");
    }
    if (tokens.empty() || tokens.size() % 2 != 0) {
      return make_error("update " + std::string(is_insert ? "insert" : "delete") +
                        " needs an even, non-zero number of vertex ids (got " +
                        std::to_string(tokens.size()) + ")");
    }
    LiveRequest lr;
    lr.op = is_insert ? LiveRequest::Op::kInsert : LiveRequest::Op::kDelete;
    for (std::size_t i = 0; i < tokens.size(); i += 2) {
      VertexId u = 0;
      VertexId v = 0;
      if (!parse_unsigned(tokens[i], u) || !parse_unsigned(tokens[i + 1], v)) {
        return make_error("update vertex ids must be non-negative integers (got '" +
                          std::string(tokens[i]) + " " + std::string(tokens[i + 1]) +
                          "')");
      }
      lr.edges.emplace_back(u, v);
    }
    ParsedRequest r;
    r.live = std::move(lr);
    return r;
  }

  std::optional<SketchKind> sketch;
  bool report_time = false;
  {
    std::string clause_error;
    if (!take_sketch_kind(tokens, sketch, clause_error)) {
      return make_error(std::move(clause_error));
    }
    if (!take_time(tokens, report_time, clause_error)) {
      return make_error(std::move(clause_error));
    }
  }
  const bool exact = take_exact(tokens);
  if (exact && sketch) {
    return make_error("kind= does not apply to exact queries (no sketches are used)");
  }

  if (iequals(cmd, "tc") || iequals(cmd, "4cc") || iequals(cmd, "cc") ||
      iequals(cmd, "stats")) {
    if (!tokens.empty()) {
      return make_error(std::string(cmd) + " takes no arguments beyond 'exact' (got '" +
                        std::string(tokens.front()) + "')");
    }
    if (iequals(cmd, "tc")) return make_query(TriangleCount{exact, sketch}, report_time);
    if (iequals(cmd, "4cc")) return make_query(FourCliqueCount{exact, sketch}, report_time);
    if (iequals(cmd, "cc")) return make_query(ClusteringCoeff{exact, sketch}, report_time);
    if (exact) return make_error("stats has no exact/sketch distinction");
    if (sketch) return make_error("stats never touches the sketches (kind= does not apply)");
    return make_query(GraphStats{}, report_time);
  }

  if (iequals(cmd, "kclique")) {
    if (tokens.size() != 1) return make_error("usage: kclique K [kind=SKETCH] [exact]");
    unsigned k = 0;
    if (!parse_unsigned(tokens[0], k) || k < 3) {
      return make_error("kclique K must be an integer >= 3 (got '" +
                        std::string(tokens[0]) + "')");
    }
    return make_query(KCliqueCount{k, exact, sketch}, report_time);
  }

  if (iequals(cmd, "cluster")) {
    if (tokens.size() != 2) {
      return make_error("usage: cluster MEASURE TAU [kind=SKETCH] [exact]");
    }
    const auto measure = algo::parse_similarity_measure(tokens[0]);
    if (!measure) {
      return make_error("unknown measure '" + std::string(tokens[0]) +
                        "' (expected jaccard, overlap, common, total, adamic, or "
                        "resource)");
    }
    double tau = 0.0;
    if (!parse_double(tokens[1], tau)) {
      return make_error("cluster TAU must be a finite number (got '" +
                        std::string(tokens[1]) + "')");
    }
    return make_query(Cluster{*measure, tau, exact, sketch}, report_time);
  }

  if (iequals(cmd, "pair")) {
    if (tokens.empty()) return make_error("usage: pair KIND U V [U V ...] [exact]");
    const auto kind = parse_estimate_kind(tokens[0]);
    if (!kind) {
      return make_error("unknown estimate kind '" + std::string(tokens[0]) +
                        "' (expected intersection, jaccard, overlap, common, or total)");
    }
    tokens.erase(tokens.begin());
    if (tokens.empty() || tokens.size() % 2 != 0) {
      return make_error("pair needs an even, non-zero number of vertex ids (got " +
                        std::to_string(tokens.size()) + ")");
    }
    PairEstimate q;
    q.kind = *kind;
    q.exact = exact;
    q.sketch = sketch;
    for (std::size_t i = 0; i < tokens.size(); i += 2) {
      VertexPair p;
      if (!parse_unsigned(tokens[i], p.u) || !parse_unsigned(tokens[i + 1], p.v)) {
        return make_error("pair vertex ids must be non-negative integers (got '" +
                          std::string(tokens[i]) + " " + std::string(tokens[i + 1]) +
                          "')");
      }
      q.pairs.push_back(p);
    }
    return make_query(std::move(q), report_time);
  }

  if (iequals(cmd, "lp")) {
    if (tokens.empty() || tokens.size() > 2) {
      return make_error("usage: lp K [MEASURE] [exact]");
    }
    LinkPredict q;
    q.exact = exact;
    q.sketch = sketch;
    if (!parse_unsigned(tokens[0], q.topk)) {
      return make_error("lp K must be a non-negative integer (got '" +
                        std::string(tokens[0]) + "')");
    }
    if (tokens.size() == 2) {
      const auto measure = algo::parse_similarity_measure(tokens[1]);
      if (!measure) {
        return make_error("unknown measure '" + std::string(tokens[1]) +
                          "' (expected jaccard, overlap, common, total, adamic, or "
                          "resource)");
      }
      q.measure = *measure;
    }
    return make_query(q, report_time);
  }

  return make_error("unknown query '" + std::string(cmd) + "' (send 'help' for the grammar)");
}

std::string format_estimate(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string format_reply(const QueryResult& r) {
  std::string reply = "ok\t";
  reply += r.name;
  const auto field = [&reply](const char* key, const std::string& value) {
    reply += key;  // "\t<name>=" (or just "\t")
    reply += value;
  };
  if (r.stats) {
    const GraphStatsInfo& s = *r.stats;
    field("\tn=", std::to_string(s.num_vertices));
    field("\tm=", std::to_string(s.num_edges));
    field("\tdmax=", std::to_string(s.max_degree));
    field("\tdavg=", format_estimate(s.avg_degree));
    field("\td2=", format_estimate(s.degree_moment2));
    field("\td3=", format_estimate(s.degree_moment3));
    return reply;
  }
  if (r.cluster) {
    field("\tclusters=", std::to_string(r.cluster->num_clusters));
    field("\tkept_edges=", std::to_string(r.cluster->kept_edges));
    return reply;
  }
  if (std::string_view(r.name) == "pair" || std::string_view(r.name) == "lp") {
    for (const PairValue& p : r.pairs) {
      field("\t", std::to_string(p.u));
      field(":", std::to_string(p.v));
      field("=", format_estimate(p.value));
    }
    return reply;
  }
  field("\t", format_estimate(r.value));
  return reply;
}

std::string format_error(std::string_view message) {
  std::string reply = "err\t";
  // Keep the one-reply-per-line invariant even for multi-line exception text.
  for (const char c : message) reply += (c == '\n' || c == '\t') ? ' ' : c;
  return reply;
}

std::string help_reply() {
  return "ok\thelp\ttc [exact] | 4cc [exact] | kclique K [exact] | cc [exact] | "
         "cluster MEASURE TAU [exact] | pair KIND U V [U V ...] [exact] | "
         "lp K [MEASURE] [exact] | stats | metrics | quit; sketch queries also "
         "take kind=bf|kh|1h|kmv to route to a substrate of a multi-sketch "
         "snapshot, and any query takes a time clause appending elapsed_us= "
         "(non-deterministic) to its reply; live servers (--live) also take "
         "update insert|delete U V [U V ...], update seal, and epoch";
}

namespace {

/// Session-layer instruments, resolved once per process (see the
/// EngineMetrics pattern in engine.cpp). Every transport drives a
/// Session, so these cover stdin REPLs, TCP sessions, and in-memory
/// test/bench sessions alike.
struct SessionMetrics {
  obs::Counter* sessions;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* err_overlong;
  obs::Counter* err_parse;
  obs::Counter* err_bad_argument;
  obs::Counter* err_engine;
  obs::Histogram* queries_per_session;
  obs::Histogram* session_seconds;
};

SessionMetrics& session_metrics() {
  static SessionMetrics m = [] {
    auto& reg = obs::Registry::global();
    const char* err_help =
        "err replies sent, by cause: overlong frame (protocol abuse), "
        "parse failure, bad-argument (client bug), engine (routing or "
        "internal failure)";
    SessionMetrics s;
    s.sessions = &reg.counter("probgraph_sessions_total",
                              "Serve sessions completed (any transport)");
    s.bytes_in = &reg.counter("probgraph_session_bytes_total",
                              "Protocol bytes, by direction (request and "
                              "reply lines incl. newline)",
                              {{"direction", "in"}});
    s.bytes_out = &reg.counter("probgraph_session_bytes_total",
                               "Protocol bytes, by direction (request and "
                               "reply lines incl. newline)",
                               {{"direction", "out"}});
    s.err_overlong = &reg.counter("probgraph_session_errors_total", err_help,
                                  {{"cause", "overlong"}});
    s.err_parse = &reg.counter("probgraph_session_errors_total", err_help,
                               {{"cause", "parse"}});
    s.err_bad_argument = &reg.counter("probgraph_session_errors_total",
                                      err_help, {{"cause", "bad-argument"}});
    s.err_engine = &reg.counter("probgraph_session_errors_total", err_help,
                                {{"cause", "engine"}});
    s.queries_per_session =
        &reg.histogram("probgraph_session_queries",
                       "Queries answered per completed session");
    s.session_seconds = &reg.histogram("probgraph_session_seconds",
                                       "Session lifetime, connect to close");
    return s;
  }();
  return m;
}

/// One structured stderr line per slow query: parse (type + request),
/// route (mode + substrate), timing. Tabs/newlines in the echoed request
/// are flattened so the log line stays one line.
void log_slow_query(std::string_view request, const QueryResult& r,
                    double elapsed_seconds) {
  std::string req;
  req.reserve(request.size());
  for (const char c : request) req += (c == '\n' || c == '\t') ? ' ' : c;
  const char* mode = r.exact ? "exact" : (r.sketch.used ? "sketch" : "plain");
  constexpr const char* kKinds[4] = {"bf", "kh", "1h", "kmv"};
  const char* kind =
      r.sketch.used ? kKinds[static_cast<std::size_t>(r.sketch.kind) & 3u] : "-";
  const char* orientation =
      r.sketch.used ? (r.sketch.degree_oriented ? "dag" : "sym") : "-";
  std::fprintf(stderr,
               "pgtool serve: slow-query type=%s mode=%s substrate=%s/%s "
               "elapsed_us=%lld request=\"%s\"\n",
               r.name, mode, kind, orientation,
               static_cast<long long>(std::llround(elapsed_seconds * 1e6)),
               req.c_str());
}

}  // namespace

/// The framing state behind the byte-oriented interface. LineScanner
/// lives in net/ next to its transports; it is implementation detail
/// here, held behind this pimpl so protocol.hpp stays net-free.
class Session::Framer {
 public:
  explicit Framer(std::size_t max_line_bytes) : scanner(max_line_bytes) {}
  net::LineScanner scanner;
};

Session::Session(SessionHost& host, ServeOptions opts, std::size_t max_line_bytes)
    : host_(host),
      opts_(opts),
      framer_(std::make_unique<Framer>(max_line_bytes)) {}

Session::~Session() {
  SessionMetrics& sm = session_metrics();
  sm.sessions->add();
  sm.queries_per_session->observe(static_cast<double>(answered_));
  sm.session_seconds->observe(lifetime_.seconds());
}

void Session::emit(std::string_view reply) {
  // Reply-byte accounting sits on the single append path so no reply
  // misses it; +1 is the newline framing added here.
  session_metrics().bytes_out->add(reply.size() + 1);
  out_.append(reply);
  out_.push_back('\n');
}

void Session::dispatch_control(const ParsedRequest& req) {
  SessionMetrics& sm = session_metrics();
  if (req.quit) {
    emit("bye");
    done_ = true;
    return;
  }
  if (req.help) {
    emit(help_reply());
    return;
  }
  if (req.metrics) {
    // Not counted in answered(): the transports' queries_answered counter
    // and the session histograms track engine queries, not scrapes.
    emit("ok\tmetrics\t" + obs::Registry::global().tab_text());
    return;
  }
  if (req.live) {
    // Live verbs reply through the host (a static host throws the
    // not-enabled error). Not counted in answered(), like `metrics`.
    try {
      emit(host_.live(*req.live));
    } catch (const std::invalid_argument& e) {
      sm.err_bad_argument->add();
      emit(format_error(e.what()));
    } catch (const std::exception& e) {
      sm.err_engine->add();
      emit(format_error(e.what()));
    }
    return;
  }
  sm.err_parse->add();
  emit(format_error(req.error));
}

void Session::flush_batch() {
  if (batch_.empty()) return;
  SessionMetrics& sm = session_metrics();
  std::vector<Query> queries;
  queries.reserve(batch_.size());
  for (PendingQuery& p : batch_) queries.push_back(std::move(p.query));
  const std::vector<BatchItem> items = host_.run_batch(queries);
  for (std::size_t k = 0; k < batch_.size() && k < items.size(); ++k) {
    const BatchItem& item = items[k];
    if (!item.result) {
      // The captured equivalent of run()'s throws: invalid_argument is a
      // client bug (out-of-range vertices, ...), anything else is an
      // engine routing or internal failure. Answer and keep serving.
      (item.invalid_argument ? sm.err_bad_argument : sm.err_engine)->add();
      emit(format_error(item.error));
      continue;
    }
    const QueryResult& r = *item.result;
    std::string reply = format_reply(r);
    if (batch_[k].report_time) {
      // r.elapsed_seconds (the algorithm alone) is the number the reply
      // documents; the slow-query check below uses the full
      // wall time, which is what the session actually waited.
      reply += "\telapsed_us=";
      reply += std::to_string(
          static_cast<long long>(std::llround(r.elapsed_seconds * 1e6)));
    }
    if (opts_.slow_query_seconds > 0 && item.wall_seconds >= opts_.slow_query_seconds) {
      log_slow_query(batch_[k].line, r, item.wall_seconds);
    }
    emit(reply);
    ++answered_;
  }
  batch_.clear();
}

void Session::feed(std::string_view bytes) {
  if (done_) return;
  framer_->scanner.feed(bytes);
}

void Session::feed_eof() noexcept { eof_ = true; }

std::size_t Session::pump(std::size_t max_requests) {
  SessionMetrics& sm = session_metrics();
  std::size_t processed = 0;
  std::string line;
  while (!done_ && processed < max_requests) {
    net::LineScanner::Next st = framer_->scanner.next(line);
    if (st == net::LineScanner::Next::kNeedMore) {
      if (!eof_) break;
      // EOF with nothing complete buffered: serve a final unterminated
      // frame like std::getline, then the session is over.
      st = framer_->scanner.finish(line);
      if (st == net::LineScanner::Next::kNeedMore) {
        flush_batch();
        done_ = true;
        break;
      }
    }
    ++processed;
    if (st == net::LineScanner::Next::kOverlong) {
      flush_batch();
      sm.err_overlong->add();
      emit(format_error(line));
      continue;
    }
    sm.bytes_in->add(line.size() + 1);
    ParsedRequest req = parse_request(line);
    if (req.ignored) continue;
    if (req.query) {
      // Consecutive plain queries batch up and execute together through
      // SessionHost::run_batch when the turn ends (or a control frame /
      // the fairness bound cuts the batch).
      batch_.push_back({std::move(*req.query), req.report_time, std::move(line)});
      line.clear();
      continue;
    }
    flush_batch();
    dispatch_control(req);
  }
  flush_batch();
  return processed;
}

namespace {

/// The static-Engine host: queries run directly, live verbs are refused.
class EngineSessionHost final : public SessionHost {
 public:
  explicit EngineSessionHost(Engine& engine) : engine_(engine) {}

  QueryResult run(const Query& q) override { return engine_.run(q); }

  std::vector<BatchItem> run_batch(std::span<const Query> queries) override {
    return engine_.run_batch(queries);
  }

  std::string live(const LiveRequest&) override {
    throw std::runtime_error(
        "live updates are not enabled on this server (serve with --live)");
  }

 private:
  Engine& engine_;
};

}  // namespace

std::unique_ptr<SessionHost> make_session_host(Engine& engine) {
  return std::make_unique<EngineSessionHost>(engine);
}

std::size_t run_blocking_session(SessionHost& host, const SessionRead& read,
                                 const SessionWrite& write, const ServeOptions& opts,
                                 std::size_t max_line_bytes) {
  constexpr std::size_t kReadChunk = 16 * 1024;
  Session session(host, opts, max_line_bytes);
  // On the heap, not the stack: every query runs below this frame, and a
  // 16 KiB stack array under the engine made exact clustering 10-15% slower
  // (measured on a scale-16 graph at 4 OpenMP threads).
  std::vector<char> buf(kReadChunk);
  while (!session.done()) {
    const long got = read(buf.data(), buf.size());
    if (got > 0) {
      session.feed({buf.data(), static_cast<std::size_t>(got)});
    } else {
      session.feed_eof();
    }
    session.pump();
    std::string& out = session.output();
    if (!out.empty() && !write(out)) break;  // peer gone: end quietly
    out.clear();
  }
  return session.answered();
}

}  // namespace probgraph::engine
