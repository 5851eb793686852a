// The `pgtool serve` line protocol: one query per line, one reply per line.
//
// Request grammar (whitespace-separated tokens, keywords case-insensitive;
// blank lines and lines starting with '#' are ignored):
//
//   tc [exact]                     triangle count
//   4cc [exact]                    4-clique count
//   kclique K [exact]              k-clique count, K >= 3
//   cc [exact]                     global clustering coefficient
//   cluster MEASURE TAU [exact]    Jarvis–Patrick clustering
//   pair KIND U V [U V ...] [exact]  batched per-pair estimates
//   lp K [MEASURE] [exact]         top-K predicted links
//   stats                          graph facts
//   metrics                        one-line metrics snapshot (see below)
//   update insert U V [U V ...]    stage edge inserts (live servers only)
//   update delete U V [U V ...]    stage edge tombstones (live servers only)
//   update seal                    apply staged changes as a new generation
//   epoch                          current generation + staged change counts
//   help                           one-line grammar summary
//   quit | exit                    end the session (replies "bye")
//
// KIND    ∈ intersection | jaccard | overlap | common | total
// MEASURE ∈ jaccard | overlap | common | total | adamic | resource
//
// Every sketch query (everything but stats) additionally accepts one
// `kind=SKETCH` clause anywhere after the command, SKETCH ∈ bf | kh | 1h |
// kmv: it routes the query to that sketch substrate of a multi-substrate
// snapshot (engine.hpp documents the routing rules; without the clause the
// file's primary substrate answers). `kind=` does not combine with `exact`
// — an exact run uses no sketches. Numeric arguments must be finite:
// "cluster jaccard nan" is answered with an err line, not a threshold that
// silently compares false everywhere.
//
// Every query (including stats) additionally accepts one `time` clause
// anywhere after the command: the reply gains a final
// `elapsed_us=<integer>` field with the query's execution time. That field
// is run-varying BY DESIGN — `time` (like `metrics`) is opt-in
// observability and is deliberately kept out of every golden transcript
// fixture; requests without the clause reply byte-identically whether or
// not other sessions used it.
//
// `metrics` replies `ok<TAB>metrics<TAB><field>...` where each field is a
// `name{labels}=value` sample of the process-wide obs::Registry (counters,
// histogram count/sum/p50/p90/p99/max, kernel tallies) — one line, tab-
// separated, run-varying, excluded from fixtures.
//
// The live verbs (update/epoch) are parsed for every session but only
// accepted by live servers (engine/generation.hpp); a static server
// answers them with an err line naming the --live flag. `update
// insert`/`update delete` STAGE changes; nothing is visible to queries
// until `update seal` applies every staged change atomically as a new
// snapshot generation — queries see whole generations, never partial
// batches.
//
// Reply grammar (exactly one line per non-ignored request, tab-separated):
//
//   ok<TAB>tc<TAB><value>                         scalar queries (tc, 4cc,
//                                                 kclique, cc)
//   ok<TAB>cluster<TAB>clusters=N<TAB>kept_edges=M
//   ok<TAB>pair<TAB>U:V=<value><TAB>...           one field per pair, in
//   ok<TAB>lp<TAB>U:V=<score><TAB>...             request/rank order
//   ok<TAB>stats<TAB>n=..<TAB>m=..<TAB>dmax=..<TAB>davg=..<TAB>d2=..<TAB>d3=..
//   ok<TAB>update<TAB>staged=insert|delete<TAB>edges=N<TAB>pending_inserts=I<TAB>pending_deletes=D
//   ok<TAB>update<TAB>sealed<TAB>generation=G<TAB>applied_inserts=A<TAB>applied_deletes=B<TAB>patched=P<TAB>rebuilt=R
//   ok<TAB>update<TAB>noop<TAB>generation=G       seal with nothing staged
//   ok<TAB>epoch<TAB>generation=G<TAB>pending_inserts=I<TAB>pending_deletes=D
//   err<TAB><message>                             malformed request or a
//                                                 query the source cannot
//                                                 answer — never a crash
//   bye                                           reply to quit/exit
//
// Replies are deterministic for a fixed snapshot: no timing or other
// run-varying data, and the estimates that sum over the graph (tc, cc,
// 4cc, kclique) add in fixed blocks, so they do not depend on the thread
// count either. Estimates print with 12 significant digits, stable across
// libm versions. `pgtool query` prints exactly these reply lines for one
// request, so a one-shot answer and a served one are the same string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "engine/query.hpp"
#include "graph/builder.hpp"
#include "util/timer.hpp"

namespace probgraph::engine {

/// One live-update request (the `update`/`epoch` verbs). Parsed for every
/// transport; only live servers (engine/generation.hpp) accept them.
struct LiveRequest {
  enum class Op : std::uint8_t {
    kInsert,  ///< stage edge inserts
    kDelete,  ///< stage edge tombstones
    kSeal,    ///< apply everything staged as a new generation
    kEpoch,   ///< report generation + staged counts
  };
  Op op = Op::kEpoch;
  std::vector<Edge> edges;  ///< kInsert/kDelete payload
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  std::optional<Query> query;  ///< set iff the line is a well-formed query
  std::optional<LiveRequest> live;  ///< set iff an update/epoch verb
  std::string error;           ///< set iff malformed (the err reply text)
  bool quit = false;           ///< "quit" / "exit"
  bool help = false;           ///< "help"
  bool metrics = false;        ///< "metrics" — registry snapshot reply
  bool ignored = false;        ///< blank line or '#' comment — no reply
  bool report_time = false;    ///< `time` clause: append elapsed_us= to the reply
};

[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// The shared estimate formatter (12 significant digits) behind every
/// reply value, and behind the bounds pgtool query prints on stderr.
[[nodiscard]] std::string format_estimate(double v);

/// One "ok\t..." reply line for an executed query (no trailing newline).
/// `report_time` (the request's `time` clause) appends the final
/// `elapsed_us=` field.
[[nodiscard]] std::string format_reply(const QueryResult& r, bool report_time = false);

/// One "err\t..." reply line.
[[nodiscard]] std::string format_error(std::string_view message);

/// The "ok\thelp\t..." grammar summary line.
[[nodiscard]] std::string help_reply();

/// Per-session serving knobs (pgtool serve flags map onto these).
struct ServeOptions {
  /// When > 0, any answered query whose execution time meets the threshold
  /// is logged to stderr as one structured `slow-query` line (type, mode,
  /// substrate route, elapsed_us, sanitized request). 0 disables.
  double slow_query_seconds = 0.0;
};

/// What a serve session runs against. One implementation per engine
/// flavor — a static Engine (below) or a live, generation-swapping
/// LiveEngine (engine/generation.hpp) — so every flavor shares ONE session
/// state machine with identical framing, error, and metrics behavior.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Execute one query (Engine::run semantics, including its throws).
  [[nodiscard]] virtual QueryResult run(const Query& q) = 0;

  /// Execute a pipelined batch in request order, capturing each query's
  /// outcome — the result or the error run() would have thrown — so one
  /// bad query never eats the replies behind it. The static host forwards
  /// to Engine::run_batch (which hoists the substrate route of consecutive
  /// same-route pair/lp queries), and the live host pins ONE generation
  /// for the whole batch. Replies MUST be bit-identical to per-query run().
  [[nodiscard]] virtual std::vector<BatchItem> run_batch(std::span<const Query> queries) = 0;

  /// Answer one live request with a complete reply line ("ok\t...").
  /// Hosts that do not accept live updates throw std::runtime_error (the
  /// session answers with the err line and keeps serving).
  [[nodiscard]] virtual std::string live(const LiveRequest& req) = 0;
};

/// A session host over a static Engine: queries run directly, update/epoch
/// verbs answer an err line naming --live. Transports create one host per
/// session through this factory (and its LiveEngine counterpart in
/// engine/generation.hpp), so adding a transport never grows a ctor
/// matrix over engine flavors again.
[[nodiscard]] std::unique_ptr<SessionHost> make_session_host(Engine& engine);

/// The buffer-oriented session state machine — the core every transport
/// drives. Raw transport bytes go in through feed(), complete reply bytes
/// come out through output(); the session neither reads nor writes any
/// I/O itself, so the SAME machine serves the blocking loop
/// (run_blocking_session below: the stdin REPL and the threads transport)
/// and the epoll reactor (which feeds nonblocking reads and drains
/// output() through writev).
///
/// Pipelining falls out of the split: feed() may deliver any number of
/// newline-framed requests in one call (or a fraction of one), and pump()
/// answers every complete buffered request — consecutive plain queries are
/// executed through SessionHost::run_batch as ONE batch — appending all
/// replies to output() in request order. A transport that drains output()
/// once per pump() therefore answers N pipelined requests with one
/// gathered write. `max_requests` bounds one pump() call (reactor
/// fairness: a pipelining hog yields the worker between turns).
///
/// Framing, error behavior (err line + keep serving), per-session obs
/// metrics, and reply bytes are identical across transports however the
/// request bytes are split into feeds. Not thread-safe: one session is
/// driven by one thread at a time (the reactor's run-queue handoff
/// guarantees this).
///
/// Observability: every session records into obs::Registry::global() —
/// sessions/bytes/err-reply counters (err causes: "overlong" frames,
/// "parse" failures, "bad-argument" client errors, "engine" routing or
/// internal failures) and per-session query-count/lifetime histograms.
/// Recording is lock-free on the session path (see obs/instruments.hpp)
/// and never changes reply bytes.
class Session {
 public:
  /// The host must outlive the session. Destruction records the
  /// per-session metrics (sessions/queries/lifetime) exactly once.
  /// `max_line_bytes` bounds request lines (an overlong frame answers one
  /// err line and the session resyncs at the next newline); 0 = unbounded,
  /// for trusted local pipes.
  explicit Session(SessionHost& host, ServeOptions opts = {},
                   std::size_t max_line_bytes = 0);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Buffer raw transport bytes (any framing fragmentation).
  void feed(std::string_view bytes);
  /// The peer sent EOF: after the buffered requests are pumped, a final
  /// unterminated frame is served like std::getline, then done() holds.
  void feed_eof() noexcept;
  /// Answer up to `max_requests` complete buffered requests, appending
  /// replies to output(). Returns the number of frames consumed (answered
  /// queries, err replies, and ignored comment/blank lines alike — the
  /// bound is a bound on work per scheduling turn). Stops early at quit.
  std::size_t pump(std::size_t max_requests = static_cast<std::size_t>(-1));
  /// True once the session is over (quit answered, or EOF fully drained):
  /// no further input will be consumed. The transport closes after also
  /// draining output().
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Pending reply bytes, every reply newline-terminated, in request
  /// order. The transport owns draining: write what it can and erase the
  /// written prefix (or move the whole string out and clear).
  [[nodiscard]] std::string& output() noexcept { return out_; }
  /// Successfully answered queries so far (err replies, metrics scrapes,
  /// and live verbs not counted) — the transport's queries_answered.
  [[nodiscard]] std::size_t answered() const noexcept { return answered_; }

 private:
  struct PendingQuery {
    Query query;
    bool report_time = false;
    std::string line;  // original request text (slow-query log)
  };
  class Framer;  // LineScanner behind a pointer (net/ stays out of this header)

  void dispatch_control(const ParsedRequest& req);
  void flush_batch();
  void emit(std::string_view reply);

  SessionHost& host_;
  ServeOptions opts_;
  std::unique_ptr<Framer> framer_;
  std::vector<PendingQuery> batch_;
  std::string out_;
  std::size_t answered_ = 0;
  bool eof_ = false;
  bool done_ = false;
  util::Timer lifetime_;  // connect-to-close, recorded at destruction
};

/// Blocking byte I/O for run_blocking_session. `read` fills up to `cap`
/// bytes of `buf` and returns the count, or <= 0 at end of input (EOF and
/// errors end the session alike). `write` sends every byte of a reply
/// chunk and returns false once the peer is gone.
using SessionRead = std::function<long(char* buf, std::size_t cap)>;
using SessionWrite = std::function<bool(std::string_view bytes)>;

/// The one blocking session driver — the stdin REPL and the threads
/// transport. Each turn reads at most one bounded chunk (16 KiB), feeds it
/// (or feed_eof() once read returns <= 0), pump()s every complete request,
/// and writes the replies; reading no further until they are written is
/// what backpressures a peer that stops reading. Malformed or overlong
/// frames and engine errors become "err" replies and the session keeps
/// serving. Ends at quit, at EOF once every buffered request is answered,
/// or on a failed write (quietly — a gone peer is a normal ending).
/// Returns the Session::answered() count of the queries whose replies were
/// written: the replies of a failed write are not counted.
std::size_t run_blocking_session(SessionHost& host, const SessionRead& read,
                                 const SessionWrite& write,
                                 const ServeOptions& opts = {},
                                 std::size_t max_line_bytes = 0);

}  // namespace probgraph::engine
