// pgtool — command-line front end for the ProbGraph library.
//
// Every query runs through the one request grammar of src/engine/
// protocol.hpp on an Engine (tools/pgtool.cpp owns no algorithm calls):
//
//   pgtool query     <graph|file.pgs> [options] REQUEST...
//                                         one-shot query: the words after
//                                         the input form one protocol
//                                         request line ("tc", "pair
//                                         jaccard 0 1", "cluster jaccard
//                                         0.1 exact", "tc kind=kmv", ...);
//                                         stdout is exactly the reply line
//                                         `pgtool serve` sends for that
//                                         line on that source (exit 1 on
//                                         an err reply), stderr the input
//                                         banner and one detail line
//                                         (timing, sketch, bound). A .pgs
//                                         input is mmap'ed and served
//                                         zero-copy; any other input is
//                                         loaded and sketched in memory,
//                                         building only the substrate the
//                                         request reads
//   pgtool build     <graph> -o <file.pgs> [--orient [both|dag|sym]]
//                    [--kinds bf,kmv,...] [options]
//                                         persist CSR + sketches to a
//                                         snapshot (build once, map many).
//                                         --kinds packs one substrate per
//                                         listed sketch kind and --orient
//                                         both packs every kind in both
//                                         orientations, so ONE file
//                                         answers counting queries from
//                                         the DAG sketches and
//                                         neighborhood queries from the
//                                         symmetric ones
//   pgtool update    <file.pgs> -o <out.pgs> [--inserts FILE]
//                    [--deletes FILE] [--apply-log FILE.pgd]
//                    [--delta-log FILE.pgd]
//                                         offline reseal: apply edge
//                                         inserts/deletes (and/or replay a
//                                         delta log) to a snapshot's
//                                         substrates incrementally
//                                         (src/live/apply.hpp — the result
//                                         is bit-identical to rebuilding
//                                         from the updated edge list) and
//                                         write the next generation;
//                                         --delta-log appends the applied
//                                         net batch to a delta log
//   pgtool serve     <file.pgs> [--listen PORT [--max-conns N]]
//                                         long-lived session: map the
//                                         snapshot once, answer one query
//                                         per line (src/engine/
//                                         protocol.hpp documents the
//                                         grammar), zero per-query setup.
//                                         Without --listen: a stdin REPL.
//                                         With --listen: a concurrent TCP
//                                         server on 127.0.0.1:PORT (PORT 0
//                                         picks an ephemeral port, named
//                                         on stderr) — every session
//                                         shares the one mapping;
//                                         SIGINT/SIGTERM stop gracefully.
//                                         --live serves through an
//                                         engine::LiveEngine: sessions may
//                                         stage edge changes and seal them
//                                         as a new generation (`update` /
//                                         `epoch` protocol verbs) while
//                                         queries keep running lock-free;
//                                         --delta-log FILE.pgd appends
//                                         every sealed batch to a durable
//                                         delta log
//   pgtool client    <host> <port>        connect to a serving pgtool:
//                                         pump stdin lines to the server
//                                         and replies to stdout, so
//                                         scripted sessions work over the
//                                         wire exactly like piped stdin
//
// <graph> is a path (edge list, or Matrix Market by its .mtx suffix), or
// "kron:SCALE:EDGEFACTOR" for a generated graph. Flags are validated
// against the command: unknown, duplicate, or inapplicable flags are
// rejected, not silently accepted.
//
// Options:
//   --sketch bf|1h|kh|kmv   (build) representation (default bf)
//   --estimator and|limit|or  BF intersection estimator (default and)
//   --budget S              storage budget in [0,1] (default 0.25)
//   --bf-hashes B           BF hash functions (default 2)
//   --k K                   explicit MinHash/KMV k (overrides budget)
//   --seed S                sketch seed (default 42)
//   --threads N             OpenMP thread count, N >= 1
//   -o, --output FILE       (build/update) snapshot output path
//   --orient [both|dag|sym] (build) sketch the degree-oriented DAG; "both"
//                           packs the symmetric AND the DAG substrates
//   --kinds K1,K2,...       (build) pack one substrate per sketch kind
//   --metrics-port P        (serve) Prometheus text /metrics endpoint on
//                           127.0.0.1:P (0 = ephemeral, named on stderr);
//                           works in both REPL and --listen modes
//   --slow-ms N             (serve) log a structured slow-query line to
//                           stderr for any query at or above N ms
// The construction flags (--estimator, --budget, --bf-hashes, --k, --seed)
// configure the sketches query builds for an in-memory graph; a .pgs input
// carries its own, so they are rejected there.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <charconv>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "engine/query.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/orientation.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "live/delta.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "util/ascii.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

using namespace probgraph;

namespace {

// --- Flag registry: one bit per flag, masked per command. ---

enum : unsigned {
  kFSketch = 1u << 0,
  kFEstimator = 1u << 1,
  kFBudget = 1u << 2,
  kFBfHashes = 1u << 3,
  kFK = 1u << 4,
  kFSeed = 1u << 5,
  kFThreads = 1u << 6,
  kFOutput = 1u << 7,
  kFOrient = 1u << 8,
  kFListen = 1u << 9,
  kFMaxConns = 1u << 10,
  kFKinds = 1u << 11,
  kFMetricsPort = 1u << 12,
  kFSlowMs = 1u << 13,
  kFLive = 1u << 14,
  kFDeltaLog = 1u << 15,
  kFInserts = 1u << 16,
  kFDeletes = 1u << 17,
  kFApplyLog = 1u << 18,
  kFTransport = 1u << 19,
};

/// The sketch-construction parameters: what `query` applies to an
/// in-memory graph and `build` persists (build also takes --sketch).
constexpr unsigned kConstructionFlags = kFEstimator | kFBudget | kFBfHashes | kFK | kFSeed;

struct FlagSpec {
  const char* name;
  const char* alias;  // e.g. "-o" for --output
  unsigned bit;
  bool takes_value;
};

constexpr FlagSpec kFlagSpecs[] = {
    {"--sketch", nullptr, kFSketch, true},
    {"--estimator", nullptr, kFEstimator, true},
    {"--budget", nullptr, kFBudget, true},
    {"--bf-hashes", nullptr, kFBfHashes, true},
    {"--k", nullptr, kFK, true},
    {"--seed", nullptr, kFSeed, true},
    {"--threads", nullptr, kFThreads, true},
    {"--output", "-o", kFOutput, true},
    {"--orient", nullptr, kFOrient, false},
    {"--listen", nullptr, kFListen, true},
    {"--max-conns", nullptr, kFMaxConns, true},
    {"--kinds", nullptr, kFKinds, true},
    {"--metrics-port", nullptr, kFMetricsPort, true},
    {"--slow-ms", nullptr, kFSlowMs, true},
    {"--live", nullptr, kFLive, false},
    {"--delta-log", nullptr, kFDeltaLog, true},
    {"--inserts", nullptr, kFInserts, true},
    {"--deletes", nullptr, kFDeletes, true},
    {"--apply-log", nullptr, kFApplyLog, true},
    {"--transport", nullptr, kFTransport, true},
};

/// Which orientations `build` sketches (and packs into the snapshot).
enum class OrientMode { kSym, kDag, kBoth };

struct Args {
  std::string command;
  std::string input;     // query's graph or .pgs, build's graph, serve's and
                         // update's .pgs, or client's <host>
  std::string input2;    // second positional (client's <port>)
  std::string request;   // query: the words after the input, space-joined
  std::string output;    // .pgs output (build)
  std::optional<std::uint16_t> listen;  // serve: TCP port (0 = ephemeral)
  int max_conns = 16;                   // serve --listen: live-session cap
  net::TransportKind transport = net::TransportKind::kThreads;  // serve --listen
  std::optional<std::uint16_t> metrics_port;  // serve: /metrics HTTP port
  double slow_ms = 0;                   // serve: slow-query log threshold
  bool live = false;                    // serve: accept update/epoch verbs
  std::string delta_log;                // serve/update: .pgd log to append
  std::string inserts_path;             // update: edge file to insert
  std::string deletes_path;             // update: edge file to delete
  std::string apply_log;                // update: .pgd log to replay
  OrientMode orient = OrientMode::kSym;
  std::vector<SketchKind> kinds;        // build --kinds (empty: just pg.kind)
  ProbGraphConfig pg;
};

using Runner = int (*)(const Args&);

/// What a command's positional arguments are, after the first (its input).
enum class Positionals {
  kInput,    // the input only
  kPort,     // client: <host> <port>
  kRequest,  // query: the input, then the request words
};

struct CommandSpec {
  const char* name;
  unsigned allowed;           // OR of the flag bits this command accepts
  bool positional_is_pgs;     // serve/update: the positional input is a .pgs path
  const char* synopsis;
  Runner run;
  Positionals positionals = Positionals::kInput;
};

int run_query(const Args& a);
int run_build(const Args& a);
int run_update(const Args& a);
int run_serve(const Args& a);
int run_client(const Args& a);

constexpr CommandSpec kCommands[] = {
    {"query", kConstructionFlags | kFThreads, false,
     "query <graph|file.pgs> [--threads N] [--estimator E] [--budget S] "
     "[--bf-hashes B] [--k K] [--seed S] REQUEST...",
     run_query, Positionals::kRequest},
    {"build", kFSketch | kConstructionFlags | kFOutput | kFOrient | kFThreads | kFKinds,
     false, "build <graph> -o <file.pgs> [--orient [both|dag|sym]] [--kinds bf,kmv,...]",
     run_build},
    {"update", kFOutput | kFInserts | kFDeletes | kFApplyLog | kFDeltaLog | kFThreads,
     true,
     "update <file.pgs> -o <out.pgs> [--inserts FILE] [--deletes FILE] "
     "[--apply-log FILE.pgd] [--delta-log FILE.pgd]", run_update},
    {"serve",
     kFThreads | kFListen | kFMaxConns | kFMetricsPort | kFSlowMs | kFLive |
         kFDeltaLog | kFTransport,
     true,
     "serve <file.pgs> [--listen PORT [--max-conns N] [--transport threads|epoll]] "
     "[--metrics-port P] [--slow-ms N] [--live [--delta-log FILE.pgd]]", run_serve},
    {"client", 0, false, "client <host> <port>", run_client, Positionals::kPort},
};

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: pgtool <command> ...\n"
               "commands:\n");
  for (const CommandSpec& c : kCommands) std::fprintf(to, "  pgtool %s\n", c.synopsis);
  std::fprintf(to,
               "options (validated per command):\n"
               "  [--sketch bf|1h|kh|kmv] [--estimator and|limit|or]\n"
               "  [--budget S] [--bf-hashes B] [--k K] [--seed S] [--threads N]\n"
               "query answers ONE request of the serve line protocol — e.g.\n"
               "'tc', 'tc exact', '4cc kind=kmv', 'kclique 5', 'cc',\n"
               "'cluster jaccard 0.1', 'pair jaccard 0 1 2 3', 'lp 10 common',\n"
               "'stats' — and prints exactly the reply line serve would send for\n"
               "it (exit 1 on an err reply); timing, sketch and bound details go\n"
               "to stderr. Its input is a .pgs snapshot (mmap'ed, served\n"
               "zero-copy; construction flags do not apply) or a graph sketched in\n"
               "memory with the construction flags, building only the substrate\n"
               "the request reads (its kind=, default bf).\n"
               "build persists the CSR graph plus fully-built sketches. A snapshot\n"
               "can pack SEVERAL substrates (--kinds bf,kmv --orient both): counting\n"
               "estimates (tc, 4cc, kclique) are answered by a DAG substrate,\n"
               "neighborhood queries (cluster, cc, pair, lp) by a symmetric one, and\n"
               "a request's kind=KIND routes to a specific carried kind (default:\n"
               "the file's primary).\n"
               "serve maps the snapshot once and answers one query per line (send\n"
               "'help' on the session for the request grammar) — over stdin, or as a\n"
               "concurrent TCP server with --listen PORT (127.0.0.1; PORT 0 picks an\n"
               "ephemeral port, printed on stderr; --max-conns caps live sessions;\n"
               "SIGINT/SIGTERM stop it gracefully). --transport picks the serving\n"
               "model: 'threads' (default) spends one blocking thread per connection,\n"
               "'epoll' multiplexes every session over an event loop and a small\n"
               "worker pool with pipelined request handling — replies are\n"
               "byte-identical either way. client connects a scripted\n"
               "stdin/stdout session to such a server. serve --live additionally\n"
               "accepts the update/epoch verbs: sessions stage edge inserts/deletes\n"
               "and seal them as a new snapshot generation while queries keep being\n"
               "answered (each sees a whole generation, never a partial batch).\n"
               "update does the same offline: it applies --inserts/--deletes edge\n"
               "files and/or replays an --apply-log delta log onto a snapshot\n"
               "incrementally and writes the resealed next generation.\n");
}

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "pgtool: error: %s\n\n", msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

// --- Strict numeric parsing: the whole token must be consumed, and a
// --- floating value must be finite — std::from_chars accepts "nan" and
// --- "inf", which would silently poison every threshold/budget downstream.

template <typename T>
T parse_number(const std::string& flag, std::string_view s) {
  T out{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    fail("flag " + flag + " expects a number, got '" + std::string(s) + "'");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) {
      fail("flag " + flag + " expects a finite number, got '" + std::string(s) + "'");
    }
  }
  return out;
}

/// Parse a `--kinds` comma list ("bf,kmv") into a deduplicated kind list,
/// preserving order (the FIRST kind becomes the snapshot's primary
/// substrate — the default routing target of kind-less queries).
std::vector<SketchKind> parse_kinds(const std::string& spec) {
  std::vector<SketchKind> kinds;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item(spec.data() + pos, comma - pos);
    const auto kind = parse_sketch_kind(item);
    if (!kind) {
      fail("--kinds entries must be sketch kinds (bf, kh, 1h, kmv), got '" +
           std::string(item) + "'");
    }
    if (std::find(kinds.begin(), kinds.end(), *kind) == kinds.end()) {
      kinds.push_back(*kind);
    }
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  if (kinds.empty()) fail("--kinds requires at least one sketch kind");
  return kinds;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() > suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

CsrGraph load_graph(const std::string& spec) {
  if (spec.rfind("kron:", 0) == 0) {
    unsigned scale = 0;
    double ef = 0;
    if (std::sscanf(spec.c_str(), "kron:%u:%lf", &scale, &ef) != 2) {
      fail("malformed Kronecker spec '" + spec + "' (expected kron:SCALE:EDGEFACTOR)");
    }
    return gen::kronecker(scale, ef, 42);
  }
  if (ends_with(spec, ".mtx")) return io::read_matrix_market(spec);
  return io::read_edge_list(spec);
}

const CommandSpec& find_command(const std::string& name) {
  for (const CommandSpec& c : kCommands) {
    if (name == c.name) return c;
  }
  fail("unknown command '" + name + "'");
}

const FlagSpec* find_flag(std::string_view token) {
  for (const FlagSpec& f : kFlagSpecs) {
    if (token == f.name || (f.alias != nullptr && token == f.alias)) return &f;
  }
  return nullptr;
}

Args parse(int argc, char** argv) {
  if (argc < 2) fail("missing command");
  Args a;
  a.command = argv[1];
  const CommandSpec& cmd = find_command(a.command);

  unsigned seen = 0;
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    // `--orient=MODE` is the lookahead-free spelling: `--orient both`
    // consumes a following bare `both`, which is ambiguous when a graph
    // file is literally named both/dag/sym.
    std::string orient_inline;
    if (token.rfind("--orient=", 0) == 0) {
      orient_inline = token.substr(9);
      token = "--orient";
    }
    // A request word may be a negative number ("cluster jaccard -0.5"): no
    // flag starts with a digit, so the protocol parser judges those words.
    const bool request_number =
        cmd.positionals == Positionals::kRequest && !a.input.empty() && token.size() > 1 &&
        (std::isdigit(static_cast<unsigned char>(token[1])) != 0 || token[1] == '.');
    const bool dashed = token.rfind('-', 0) == 0 && !request_number;
    const FlagSpec* flag = dashed ? find_flag(token) : nullptr;
    if (flag == nullptr) {
      if (dashed) fail("unknown flag '" + token + "'");
      if (a.input.empty()) {
        a.input = token;
      } else if (cmd.positionals == Positionals::kPort && a.input2.empty()) {
        a.input2 = token;
      } else if (cmd.positionals == Positionals::kRequest) {
        if (!a.request.empty()) a.request += ' ';
        a.request += token;
      } else {
        fail("unexpected positional argument '" + token + "' (input already given: '" +
             a.input + "')");
      }
      continue;
    }
    if ((cmd.allowed & flag->bit) == 0) {
      fail("flag " + token + " does not apply to the " + a.command + " command");
    }
    if ((seen & flag->bit) != 0) fail("duplicate flag " + token);
    seen |= flag->bit;
    std::string value;
    if (flag->takes_value) {
      if (i + 1 >= argc) fail("flag " + token + " requires a value");
      value = argv[++i];
    }

    switch (flag->bit) {
      case kFSketch:
        if (value == "exact") fail("--sketch exact has no sketches to persist");
        if (const auto kind = parse_sketch_kind(value)) {
          a.pg.kind = *kind;
        } else {
          fail("unknown sketch kind '" + value + "' (expected bf, 1h, kh, or kmv)");
        }
        break;
      case kFEstimator: {
        const auto e = parse_bf_estimator(value);
        if (!e) fail("unknown BF estimator '" + value + "' (expected and, limit, or or)");
        a.pg.bf_estimator = *e;
        break;
      }
      case kFBudget:
        a.pg.storage_budget = parse_number<double>(token, value);
        break;
      case kFBfHashes:
        a.pg.bf_hashes = parse_number<std::uint32_t>(token, value);
        break;
      case kFK:
        a.pg.minhash_k = parse_number<std::uint32_t>(token, value);
        break;
      case kFSeed:
        a.pg.seed = parse_number<std::uint64_t>(token, value);
        break;
      case kFThreads: {
        const int threads = parse_number<int>(token, value);
        if (threads < 1) fail("--threads must be at least 1");
        util::set_threads(threads);
        break;
      }
      case kFOutput:
        a.output = value;
        break;
      case kFOrient: {
        // --orient takes an OPTIONAL value: bare --orient keeps its v1
        // meaning (DAG only); "both" packs both orientations; "dag"/"sym"
        // spell the single-orientation modes explicitly. The `--orient=MODE`
        // spelling never consumes the next token.
        std::string_view mode = orient_inline;
        bool lookahead = false;
        if (mode.empty() && i + 1 < argc) {
          const std::string_view next = argv[i + 1];
          if (next == "both" || next == "dag" || next == "sym") {
            mode = next;
            lookahead = true;
          }
        }
        if (mode == "both") {
          a.orient = OrientMode::kBoth;
        } else if (mode == "dag") {
          a.orient = OrientMode::kDag;
        } else if (mode == "sym") {
          a.orient = OrientMode::kSym;
        } else if (mode.empty()) {
          a.orient = OrientMode::kDag;  // bare --orient
        } else {
          fail("--orient expects both, dag, or sym (got '" + std::string(mode) + "')");
        }
        if (lookahead) ++i;
        break;
      }
      case kFKinds:
        a.kinds = parse_kinds(value);
        break;
      case kFListen:
        a.listen = parse_number<std::uint16_t>(token, value);
        break;
      case kFMaxConns:
        a.max_conns = parse_number<int>(token, value);
        if (a.max_conns < 1) fail("--max-conns must be at least 1");
        break;
      case kFMetricsPort:
        a.metrics_port = parse_number<std::uint16_t>(token, value);
        break;
      case kFSlowMs:
        a.slow_ms = parse_number<double>(token, value);
        if (a.slow_ms < 0) fail("--slow-ms must be non-negative");
        break;
      case kFLive:
        a.live = true;
        break;
      case kFDeltaLog:
        a.delta_log = value;
        break;
      case kFInserts:
        a.inserts_path = value;
        break;
      case kFDeletes:
        a.deletes_path = value;
        break;
      case kFApplyLog:
        a.apply_log = value;
        break;
      case kFTransport: {
        const auto kind = net::parse_transport_kind(value);
        if (!kind) {
          fail("unknown transport '" + value + "' (expected threads or epoll)");
        }
        a.transport = *kind;
        break;
      }
      default: fail("unhandled flag " + token);  // unreachable
    }
  }

  // --- Per-command input validation. ---
  if ((seen & kFMaxConns) != 0 && !a.listen) {
    fail("--max-conns only applies with --listen");
  }
  if ((seen & kFTransport) != 0 && !a.listen) {
    fail("--transport only applies with --listen");
  }
  if (a.command == "serve" && !a.delta_log.empty() && !a.live) {
    fail("--delta-log on serve requires --live");
  }
  if (a.command == "update") {
    if (a.output.empty()) fail("update requires an output path (-o <out.pgs>)");
    if (a.inserts_path.empty() && a.deletes_path.empty() && a.apply_log.empty()) {
      fail("update needs changes to apply: --inserts, --deletes, and/or --apply-log");
    }
  }
  if (a.command == "client") {
    if (a.input.empty() || a.input2.empty()) fail("client requires <host> <port>");
    return a;
  }
  if (a.command == "build") {
    if (a.input.empty()) fail("build requires an input <graph>");
    if (a.output.empty()) fail("build requires an output path (-o <file.pgs>)");
    if (!a.kinds.empty() && (seen & kFSketch) != 0) {
      fail("give either --sketch or --kinds, not both");
    }
  } else if (cmd.positional_is_pgs) {
    if (a.input.empty()) fail(a.command + " requires a snapshot path (<file.pgs>)");
  } else if (a.command == "query") {
    if (a.input.empty()) fail("query requires an input <graph|file.pgs>");
    if (ends_with(a.input, ".pgs") && (seen & kConstructionFlags) != 0) {
      fail("construction flags (--estimator, --budget, --bf-hashes, --k, --seed) do not "
           "apply to a .pgs input: its sketches come from the file");
    }
  }
  return a;
}

void print_graph_line(std::FILE* to, const CsrGraph& g) {
  std::fprintf(to, "graph: n=%u, m=%llu, d_max=%llu, d_avg=%.1f\n", g.num_vertices(),
               static_cast<unsigned long long>(g.num_edges()),
               static_cast<unsigned long long>(g.max_degree()), g.avg_degree());
}

/// The verbs that only mean something inside a serve session.
bool is_session_verb(std::string_view verb) {
  for (const char* v : {"help", "metrics", "quit", "exit", "update", "epoch"}) {
    if (util::iequals(verb, v)) return true;
  }
  return false;
}

/// The Engine a one-shot query runs on, with the input banner on stderr.
/// A .pgs input is mapped whole. Any other input is sketched in memory
/// only where `q` reads: its kind= (default bf), on the DAG for the
/// counting queries and on the symmetric graph for the rest; exact and
/// stats queries build no sketches.
engine::Engine open_source(const Args& a, const engine::Query& q) {
  if (ends_with(a.input, ".pgs")) {
    util::Timer load_timer;
    engine::Engine e = engine::Engine::from_snapshot(a.input);
    const io::SnapshotInfo& info = *e.snapshot_info();
    std::fprintf(stderr,
                 "snapshot: %s, substrates [%s], %.2f MB file, loaded in %.4fs "
                 "(primary construction %.4fs)\n",
                 a.input.c_str(), io::describe_substrates(info.substrates).c_str(),
                 static_cast<double>(info.file_bytes) / 1e6, load_timer.seconds(),
                 info.construction_seconds);
    print_graph_line(stderr, e.graph());
    return e;
  }
  CsrGraph g = load_graph(a.input);
  print_graph_line(stderr, g);
  const bool counting = std::holds_alternative<engine::TriangleCount>(q) ||
                        std::holds_alternative<engine::FourCliqueCount>(q) ||
                        std::holds_alternative<engine::KCliqueCount>(q);
  std::vector<SketchKind> kinds;
  std::visit(
      [&kinds](const auto& query) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(query)>, engine::GraphStats>) {
          if (!query.exact) kinds.push_back(query.sketch.value_or(SketchKind::kBloomFilter));
        }
      },
      q);
  return engine::Engine(std::move(g), kinds, /*symmetric=*/!counting,
                        /*degree_oriented=*/counting, a.pg);
}

/// One stderr line of what the reply leaves out: query time, the sketch
/// that answered (or exact), the deviation bound, and for stats the CSR.
void print_detail(const engine::QueryResult& r) {
  std::fprintf(stderr, "%s: %.4fs", r.name, r.elapsed_seconds);
  if (r.stats) {
    std::fprintf(stderr, ", CSR %.2f MB%s", static_cast<double>(r.stats->csr_bytes) / 1e6,
                 r.stats->mapped ? " (mmap-served)" : "");
  } else if (r.exact) {
    std::fprintf(stderr, ", exact");
  } else if (r.sketch.used) {
    std::fprintf(stderr, ", %s/%s sketches, relmem %.2f, construction %.4fs",
                 to_string(r.sketch.kind), r.sketch.degree_oriented ? "dag" : "sym",
                 r.sketch.relative_memory, r.sketch.construction_seconds);
  }
  if (r.bound) {
    std::fprintf(stderr, "; deviation bound: P(|est - true| >= %s) <= %s [%s]",
                 engine::format_estimate(r.bound->t).c_str(),
                 engine::format_estimate(r.bound->probability).c_str(), r.bound->name);
  }
  std::fprintf(stderr, "\n");
}

int run_query(const Args& a) {
  const std::string_view line = a.request;
  const std::size_t first = line.find_first_not_of(" \t\r");
  const std::string_view verb =
      first == std::string_view::npos
          ? std::string_view()
          : line.substr(first, line.find_first_of(" \t\r", first) - first);
  if (is_session_verb(verb)) {
    fail("'" + std::string(verb) + "' only works inside a session; use pgtool serve");
  }
  const engine::ParsedRequest req = engine::parse_request(line);
  if (req.ignored) fail("query requires a REQUEST (e.g. 'tc' or 'pair jaccard 0 1')");

  std::string reply;
  int status = 1;
  if (!req.query) {
    reply = engine::format_error(req.error);
  } else {
    const engine::Engine e = open_source(a, *req.query);
    try {
      const engine::QueryResult r = e.run(*req.query);
      reply = engine::format_reply(r, req.report_time);
      print_detail(r);
      status = 0;
    } catch (const std::exception& ex) {
      reply = engine::format_error(ex.what());
    }
  }
  std::printf("%s\n", reply.c_str());
  return status;
}

int run_build(const Args& a) {
  const CsrGraph g = load_graph(a.input);
  print_graph_line(stdout, g);

  // One substrate per (kind, orientation), kind-major with the symmetric
  // orientation first — so the FIRST listed kind's symmetric sketches (or
  // its DAG ones under plain --orient) are the snapshot's primary
  // substrate, the default routing target of kind-less queries.
  std::vector<SketchKind> kinds = a.kinds;
  if (kinds.empty()) kinds = {a.pg.kind};
  const io::SubstrateSet set =
      io::build_substrates(g, kinds, /*symmetric=*/a.orient != OrientMode::kDag,
                           /*degree_oriented=*/a.orient != OrientMode::kSym, a.pg);
  std::size_t sketch_bytes = 0;
  double construction = 0.0;
  for (const ProbGraph& pg : set.sketches) {
    sketch_bytes += pg.memory_bytes();
    construction += pg.construction_seconds();
  }

  util::Timer timer;
  io::save_snapshot(a.output, set.substrates);
  std::vector<io::SubstrateInfo> infos;
  for (const io::SnapshotSubstrate& s : set.substrates) {
    infos.push_back({s.pg->kind(), s.degree_oriented, s.pg->construction_seconds()});
  }
  std::printf("wrote %s: substrates [%s], %.2f MB sketch arenas "
              "(relmem %.2f of the CSR), construction %.4fs, save %.4fs\n",
              a.output.c_str(), io::describe_substrates(infos).c_str(),
              static_cast<double>(sketch_bytes) / 1e6,
              static_cast<double>(sketch_bytes) / static_cast<double>(g.memory_bytes()),
              construction, timer.seconds());
  return 0;
}

int run_update(const Args& a) {
  const io::Snapshot snap = io::load_snapshot(a.input);
  const io::SnapshotInfo& info = snap.info();
  std::printf("snapshot: %s, substrates [%s], n=%u, m=%llu\n", a.input.c_str(),
              io::describe_substrates(info.substrates).c_str(), info.num_vertices,
              static_cast<unsigned long long>(snap.graph().num_edges()));

  // The change sequence: replayed delta-log batches first (in log order),
  // then the --inserts/--deletes files as one final batch.
  std::vector<live::DeltaBatch> batches;
  if (!a.apply_log.empty()) batches = live::read_delta_log(a.apply_log);
  live::DeltaBatch file_batch;
  // The pairs as written: the apply layer owns normalization (live/apply.hpp).
  const auto read_pairs = [](const std::string& path) {
    return io::read_edge_text(path, io::TextFormat::kEdgeList).edges;
  };
  if (!a.inserts_path.empty()) file_batch.inserts = read_pairs(a.inserts_path);
  if (!a.deletes_path.empty()) file_batch.deletes = read_pairs(a.deletes_path);
  if (!file_batch.empty()) batches.push_back(std::move(file_batch));

  // Fold the sequence into ONE net batch relative to the base snapshot:
  // within a batch deletions win (the apply-layer rule); across batches the
  // LATER batch wins. Sketch maintenance depends only on the final edge
  // set, so applying the net batch once is bit-identical to applying the
  // sequence. Keys are normalized (min,max) so "2 1" in one batch and
  // "1 2" in another meet at the same entry.
  std::map<Edge, bool> forced;  // true = present, false = absent
  const auto norm = [](Edge e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  for (const live::DeltaBatch& b : batches) {
    for (const Edge& e : b.inserts) forced[norm(e)] = true;
    for (const Edge& e : b.deletes) forced[norm(e)] = false;
  }
  live::DeltaBatch net;
  for (const auto& [e, present] : forced) {
    (present ? net.inserts : net.deletes).push_back(e);
  }

  live::UpdatedSnapshot updated = live::apply_batch(snap, net);
  util::Timer save_timer;
  io::save_snapshot(a.output, updated.substrates);
  if (!a.delta_log.empty()) {
    live::DeltaLogWriter writer(a.delta_log);
    writer.append(net);
  }

  const live::ApplyStats& s = updated.stats;
  std::printf("applied %llu insert%s, %llu delete%s (%zu batch%s): n=%u, m=%llu; "
              "%llu vertices patched in place, %llu rebuilt, %llu substrate%s "
              "rebuilt cold; apply %.4fs\n",
              static_cast<unsigned long long>(s.inserts_applied),
              s.inserts_applied == 1 ? "" : "s",
              static_cast<unsigned long long>(s.deletes_applied),
              s.deletes_applied == 1 ? "" : "s", batches.size(),
              batches.size() == 1 ? "" : "es", s.num_vertices,
              static_cast<unsigned long long>(s.num_edges),
              static_cast<unsigned long long>(s.vertices_patched),
              static_cast<unsigned long long>(s.vertices_rebuilt),
              static_cast<unsigned long long>(s.substrates_rebuilt),
              s.substrates_rebuilt == 1 ? "" : "s", s.seconds);
  std::printf("wrote %s (save %.4fs)\n", a.output.c_str(), save_timer.seconds());
  return 0;
}

// SIGINT/SIGTERM → graceful server stop. The pointer is published before
// the handlers are installed and cleared after they are restored, so the
// handler only ever sees a live server. `volatile` is NOT enough here: it
// neither orders the publication against the handler installation nor
// guarantees a tear-free cross-thread read (signals may be delivered on
// any thread once --listen sessions exist). A lock-free std::atomic gives
// both; the handler's relaxed load is async-signal-safe precisely because
// it is lock-free.
std::atomic<net::Transport*> g_signal_server{nullptr};
static_assert(std::atomic<net::Transport*>::is_always_lock_free,
              "the signal handler requires a lock-free atomic pointer");

extern "C" void stop_signal_handler(int) {
  net::Transport* const s = g_signal_server.load(std::memory_order_relaxed);
  if (s != nullptr) s->request_stop();  // async-signal-safe (self-pipe write)
}

/// Shared shutdown tail of both serve modes: the registry digest on
/// stderr, so a stopped server leaves its telemetry behind even when
/// nothing ever scraped it.
void print_metrics_summary() {
  const std::string summary = obs::Registry::global().summary_text();
  if (summary.empty()) return;
  std::fprintf(stderr, "pgtool serve: metrics summary\n%s", summary.c_str());
}

/// RAII /metrics endpoint: --metrics-port starts it next to either serve
/// mode on its own thread; destruction stops and joins it.
class ScopedMetricsServer {
 public:
  explicit ScopedMetricsServer(std::uint16_t port) : server_(port) {
    std::fprintf(stderr,
                 "pgtool serve: metrics on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(server_.port()));
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ScopedMetricsServer() {
    server_.request_stop();
    thread_.join();
  }
  ScopedMetricsServer(const ScopedMetricsServer&) = delete;
  ScopedMetricsServer& operator=(const ScopedMetricsServer&) = delete;

 private:
  obs::MetricsHttpServer server_;
  std::thread thread_;
};

int run_serve(const Args& a) {
  // The banner goes to stderr so stdout carries protocol replies only —
  // scripted sessions (CI transcripts) diff cleanly.
  util::Timer load_timer;
  // --live wraps the snapshot in a LiveEngine (generation 1); sessions may
  // then stage/seal updates. Plain serve keeps the single static Engine.
  std::optional<engine::Engine> owned;
  std::optional<engine::LiveEngine> live;
  if (a.live) {
    engine::LiveEngine::Options live_opts;
    live_opts.delta_log_path = a.delta_log;
    live.emplace(a.input, live_opts);
  } else {
    owned.emplace(engine::Engine::from_snapshot(a.input));
  }
  const engine::Engine& e = live ? live->current_engine_unsynchronized() : *owned;
  const io::SnapshotInfo& info = *e.snapshot_info();
  const char* live_note = live ? ", live updates on" : "";

  engine::ServeOptions session_opts;
  session_opts.slow_query_seconds = a.slow_ms / 1e3;

  std::optional<ScopedMetricsServer> metrics;
  if (a.metrics_port) metrics.emplace(*a.metrics_port);

  // A vanished reader — a --listen client, or whatever stdout is piped
  // into — becomes a failed write that ends its session quietly, not a
  // SIGPIPE that kills the process before the summary below.
  std::signal(SIGPIPE, SIG_IGN);

  if (!a.listen) {
    std::fprintf(stderr,
                 "pgtool serve: %s — n=%u, substrates [%s], mapped in %.4fs%s; one "
                 "query per line, 'help' for the grammar, 'quit' to exit\n",
                 a.input.c_str(), e.graph().num_vertices(),
                 io::describe_substrates(info.substrates).c_str(), load_timer.seconds(),
                 live_note);
    const auto host =
        live ? engine::make_session_host(*live) : engine::make_session_host(*owned);
    const std::size_t answered = engine::run_blocking_session(
        *host,
        [](char* buf, std::size_t cap) {
          for (;;) {
            const ssize_t got = ::read(STDIN_FILENO, buf, cap);
            if (got >= 0 || errno != EINTR) return static_cast<long>(got);
          }
        },
        [](std::string_view bytes) {
          return std::fwrite(bytes.data(), 1, bytes.size(), stdout) == bytes.size() &&
                 std::fflush(stdout) == 0;
        },
        session_opts);
    std::fprintf(stderr, "pgtool serve: session over, %zu quer%s answered\n", answered,
                 answered == 1 ? "y" : "ies");
    print_metrics_summary();
    return 0;
  }

  net::ServeOptions opts;
  if (live) {
    opts.live = &*live;
  } else {
    opts.engine = &*owned;
  }
  opts.port = *a.listen;
  opts.max_conns = a.max_conns;
  opts.session = session_opts;
  const std::unique_ptr<net::Transport> server =
      net::make_transport(a.transport, opts);
  std::fprintf(stderr,
               "pgtool serve: %s — n=%u, substrates [%s], mapped in %.4fs%s; listening "
               "on 127.0.0.1:%u (%s transport, max %d concurrent sessions over one "
               "mapping), SIGINT/SIGTERM to stop\n",
               a.input.c_str(), e.graph().num_vertices(),
               io::describe_substrates(info.substrates).c_str(), load_timer.seconds(),
               live_note, static_cast<unsigned>(server->port()),
               net::transport_kind_name(a.transport), a.max_conns);

  g_signal_server.store(server.get());  // published (seq_cst) before the handlers exist
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
  server->run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_signal_server.store(nullptr);  // cleared only after the handlers are gone

  const net::Transport::Counters c = server->counters();
  std::fprintf(stderr,
               "pgtool serve: stopped — %llu session%s served, %llu rejected at "
               "capacity, %llu quer%s answered\n",
               static_cast<unsigned long long>(c.accepted), c.accepted == 1 ? "" : "s",
               static_cast<unsigned long long>(c.rejected),
               static_cast<unsigned long long>(c.queries_answered),
               c.queries_answered == 1 ? "y" : "ies");
  print_metrics_summary();
  return 0;
}

int run_client(const Args& a) {
  const std::uint16_t port = parse_number<std::uint16_t>("<port>", a.input2);
  net::Socket sock = net::connect_to(a.input, port);  // throws with the errno text
  std::signal(SIGPIPE, SIG_IGN);

  // Single-threaded two-way pump: stdin bytes go to the server as-is (its
  // session does the framing), reply bytes go to stdout as they arrive.
  // Stdin EOF half-closes the connection ("no more requests"); the session
  // ends when the server closes — after `quit`, a stop signal, or a
  // protocol-free probe (empty stdin), so piped transcripts match the
  // stdin REPL byte for byte.
  bool stdin_open = true;
  char buf[1 << 14];
  for (;;) {
    pollfd fds[2] = {{sock.fd(), POLLIN, 0}, {STDIN_FILENO, POLLIN, 0}};
    const nfds_t nfds = stdin_open ? 2 : 1;
    if (::poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      const long got = sock.read_some(buf, sizeof buf);
      if (got <= 0) break;  // server closed: the session is over
      if (std::fwrite(buf, 1, static_cast<std::size_t>(got), stdout) !=
              static_cast<std::size_t>(got) ||
          std::fflush(stdout) != 0) {
        break;  // downstream consumer gone (SIGPIPE is ignored): stop pumping
      }
    }
    if (stdin_open && fds[1].revents != 0) {
      const ssize_t got = ::read(STDIN_FILENO, buf, sizeof buf);
      if (got <= 0) {
        stdin_open = false;
        sock.shutdown_write();
      } else if (!sock.write_all(buf, static_cast<std::size_t>(got))) {
        break;  // server gone mid-request
      }
    }
  }
  return 0;
}

int run_command(int argc, char** argv) {
  const Args a = parse(argc, argv);
  return find_command(a.command).run(a);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_command(argc, argv);
  } catch (const std::exception& e) {
    // I/O and format errors (unreadable graphs, rejected snapshots, wrong
    // snapshot orientation, ...) surface here as clean diagnostics rather
    // than std::terminate.
    std::fprintf(stderr, "pgtool: error: %s\n", e.what());
    return 1;
  }
}
