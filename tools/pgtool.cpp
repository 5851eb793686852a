// pgtool — command-line front end for the ProbGraph library.
//
// Every subcommand is a thin parser producing a typed engine::Query that a
// src/engine/ Engine executes (tools/pgtool.cpp owns no algorithm calls):
//
//   pgtool tc        <graph> [options]    triangle counting
//   pgtool 4cc       <graph> [options]    4-clique counting
//   pgtool kclique   <graph> --k-clique K [options]
//   pgtool cluster   <graph> [options]    Jarvis-Patrick clustering
//   pgtool cc        <graph> [options]    global clustering coefficient
//   pgtool pair      <graph> --pairs U:V[,U:V...] [--kind KIND] [options]
//   pgtool lp        <graph> [--topk K] [--measure M] [options]
//   pgtool stats     <graph>              basic graph statistics
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
// <graph> is a path, or "kron:SCALE:EDGEFACTOR" for a generated graph.
// Every command except build/serve also accepts `--snapshot <file.pgs>` in
// place of <graph>: the snapshot is mmap'ed and estimates are served
// zero-copy out of the mapping (sketch parameters then come from the file;
// `--sketch KIND` routes to that sketch substrate of a multi-substrate
// snapshot). Counting estimates need a DAG substrate (--orient or --orient
// both); neighborhood queries (cluster, cc, pair, lp) need a symmetric
// one. Flags are validated against the command: unknown, duplicate, or
// inapplicable flags are rejected, not silently accepted.
//
// Options:
//   --sketch bf|1h|kh|kmv   representation (default bf; "exact" disables PG)
//   --estimator and|limit|or  BF intersection estimator (default and)
//   --budget S              storage budget in [0,1] (default 0.25)
//   --bf-hashes B           BF hash functions (default 2)
//   --k K                   explicit MinHash/KMV k (overrides budget)
//   --tau T                 clustering threshold (default 0.1)
//   --measure M             jaccard|overlap|common|total|adamic|resource
//   --kind K                pair estimate: intersection|jaccard|overlap|
//                           common|total (default intersection)
//   --pairs U:V[,U:V...]    pair: the batch of vertex pairs to score
//   --topk K                lp: number of predicted links (default 10)
//   --threads N             OpenMP thread count
//   --seed S                sketch seed (default 42)
//   --snapshot FILE         serve from a .pgs snapshot instead of <graph>
//   -o, --output FILE       (build) snapshot output path
//   --orient [both|dag|sym] (build) sketch the degree-oriented DAG; "both"
//                           packs the symmetric AND the DAG substrates
//   --kinds K1,K2,...       (build) pack one substrate per sketch kind
//   --metrics-port P        (serve) Prometheus text /metrics endpoint on
//                           127.0.0.1:P (0 = ephemeral, named on stderr);
//                           works in both REPL and --listen modes
//   --slow-ms N             (serve) log a structured slow-query line to
//                           stderr for any query at or above N ms
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
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
  kFKClique = 1u << 6,
  kFTau = 1u << 7,
  kFMeasure = 1u << 8,
  kFThreads = 1u << 9,
  kFSnapshot = 1u << 10,
  kFOutput = 1u << 11,
  kFOrient = 1u << 12,
  kFPairs = 1u << 13,
  kFKind = 1u << 14,
  kFTopK = 1u << 15,
  kFListen = 1u << 16,
  kFMaxConns = 1u << 17,
  kFKinds = 1u << 18,
  kFMetricsPort = 1u << 19,
  kFSlowMs = 1u << 20,
  kFLive = 1u << 21,
  kFDeltaLog = 1u << 22,
  kFInserts = 1u << 23,
  kFDeletes = 1u << 24,
  kFApplyLog = 1u << 25,
  kFTransport = 1u << 26,
};

/// The sketch-construction flags shared by every command that may build or
/// describe a ProbGraph.
constexpr unsigned kSketchFlags =
    kFSketch | kFEstimator | kFBudget | kFBfHashes | kFK | kFSeed;

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
    {"--k-clique", nullptr, kFKClique, true},
    {"--tau", nullptr, kFTau, true},
    {"--measure", nullptr, kFMeasure, true},
    {"--threads", nullptr, kFThreads, true},
    {"--snapshot", nullptr, kFSnapshot, true},
    {"--output", "-o", kFOutput, true},
    {"--orient", nullptr, kFOrient, false},
    {"--pairs", nullptr, kFPairs, true},
    {"--kind", nullptr, kFKind, true},
    {"--topk", nullptr, kFTopK, true},
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
  std::string input;     // edge-list/mtx path, kron:S:E spec, serve's .pgs,
                         // or client's <host>
  std::string input2;    // second positional (client's <port>)
  std::string snapshot;  // .pgs input (--snapshot on serving commands)
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
  std::optional<SketchKind> route_kind; // --sketch over --snapshot: substrate routing
  bool exact = false;
  bool estimator_set = false;
  bool sketch_kind_set = false;        // --sketch KIND given
  bool sketch_flags_set = false;       // any sketch-construction flag given
  bool sketch_param_set = false;       // a non---sketch construction flag given
  ProbGraphConfig pg;
  double tau = 0.1;
  unsigned kclique = 5;
  algo::SimilarityMeasure measure_cluster = algo::SimilarityMeasure::kJaccard;
  algo::SimilarityMeasure measure_lp = algo::SimilarityMeasure::kCommonNeighbors;
  engine::EstimateKind kind = engine::EstimateKind::kIntersection;
  std::vector<engine::VertexPair> pairs;
  std::uint32_t topk = 10;
};

using Runner = int (*)(const Args&);

struct CommandSpec {
  const char* name;
  unsigned allowed;           // OR of the flag bits this command accepts
  bool positional_is_pgs;     // serve: the positional input is a .pgs path
  const char* synopsis;
  Runner run;
  bool two_positionals = false;  // client: <host> <port>
};

int run_counting(const Args& a);   // tc, 4cc, kclique
int run_cluster(const Args& a);
int run_cc(const Args& a);
int run_pair(const Args& a);
int run_lp(const Args& a);
int run_stats(const Args& a);
int run_build(const Args& a);
int run_update(const Args& a);
int run_serve(const Args& a);
int run_client(const Args& a);

constexpr unsigned kServingCommon = kSketchFlags | kFSnapshot | kFThreads;

constexpr CommandSpec kCommands[] = {
    {"tc", kServingCommon, false, "tc <graph>|--snapshot <file.pgs>", run_counting},
    {"4cc", kServingCommon, false, "4cc <graph>|--snapshot <file.pgs>", run_counting},
    {"kclique", kServingCommon | kFKClique, false,
     "kclique <graph>|--snapshot <file.pgs> --k-clique K", run_counting},
    {"cluster", kServingCommon | kFTau | kFMeasure, false,
     "cluster <graph>|--snapshot <file.pgs> [--measure M] [--tau T]", run_cluster},
    {"cc", kServingCommon, false, "cc <graph>|--snapshot <file.pgs>", run_cc},
    {"pair", kServingCommon | kFPairs | kFKind, false,
     "pair <graph>|--snapshot <file.pgs> --pairs U:V[,U:V...] [--kind KIND]", run_pair},
    {"lp", kServingCommon | kFTopK | kFMeasure, false,
     "lp <graph>|--snapshot <file.pgs> [--topk K] [--measure M]", run_lp},
    {"stats", kFSnapshot | kFThreads, false, "stats <graph>|--snapshot <file.pgs>",
     run_stats},
    {"build", kSketchFlags | kFOutput | kFOrient | kFThreads | kFKinds, false,
     "build <graph> -o <file.pgs> [--orient [both|dag|sym]] [--kinds bf,kmv,...]",
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
    {"client", 0, false, "client <host> <port>", run_client, true},
};

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: pgtool <command> ...\n"
               "commands:\n");
  for (const CommandSpec& c : kCommands) std::fprintf(to, "  pgtool %s\n", c.synopsis);
  std::fprintf(to,
               "options (validated per command):\n"
               "  [--sketch bf|1h|kh|kmv|exact] [--estimator and|limit|or]\n"
               "  [--budget S] [--bf-hashes B] [--k K] [--seed S] [--threads N]\n"
               "  [--k-clique K] [--tau T]\n"
               "  [--measure jaccard|overlap|common|total|adamic|resource]\n"
               "  [--kind intersection|jaccard|overlap|common|total]\n"
               "  [--pairs U:V[,U:V...]] [--topk K]\n"
               "build persists the CSR graph plus fully-built sketches; --snapshot\n"
               "mmaps such a file and serves estimates zero-copy. A snapshot can pack\n"
               "SEVERAL substrates (--kinds bf,kmv --orient both): counting estimates\n"
               "(tc, 4cc, kclique) are answered by a DAG substrate, neighborhood\n"
               "queries (cluster, cc, pair, lp) by a symmetric one, and --sketch KIND\n"
               "routes to a specific carried kind (default: the file's primary).\n"
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
// --- "inf", which would silently poison every threshold/budget downstream
// --- (e.g. a nan tau makes every similarity comparison false).

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

std::vector<engine::VertexPair> parse_pairs(const std::string& spec) {
  std::vector<engine::VertexPair> pairs;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item(spec.data() + pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      fail("--pairs entries must be U:V, got '" + std::string(item) + "'");
    }
    engine::VertexPair p;
    p.u = parse_number<VertexId>("--pairs", item.substr(0, colon));
    p.v = parse_number<VertexId>("--pairs", item.substr(colon + 1));
    pairs.push_back(p);
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  return pairs;
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
  if (spec.size() > 4 && spec.substr(spec.size() - 4) == ".mtx") {
    return io::read_matrix_market(spec);
  }
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
    const FlagSpec* flag = token.rfind('-', 0) == 0 ? find_flag(token) : nullptr;
    if (flag == nullptr) {
      if (token.rfind('-', 0) == 0) fail("unknown flag '" + token + "'");
      if (a.input.empty()) {
        a.input = token;
      } else if (cmd.two_positionals && a.input2.empty()) {
        a.input2 = token;
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
        a.sketch_flags_set = true;
        if (value == "exact") {
          a.exact = true;
        } else if (const auto kind = parse_sketch_kind(value)) {
          a.pg.kind = *kind;
          a.sketch_kind_set = true;
        } else {
          fail("unknown sketch kind '" + value + "' (expected bf, 1h, kh, kmv, or exact)");
        }
        break;
      case kFEstimator: {
        const auto e = parse_bf_estimator(value);
        if (!e) fail("unknown BF estimator '" + value + "' (expected and, limit, or or)");
        a.pg.bf_estimator = *e;
        a.estimator_set = true;
        a.sketch_flags_set = true;
        a.sketch_param_set = true;
        break;
      }
      case kFBudget:
        a.pg.storage_budget = parse_number<double>(token, value);
        a.sketch_flags_set = true;
        a.sketch_param_set = true;
        break;
      case kFBfHashes:
        a.pg.bf_hashes = parse_number<std::uint32_t>(token, value);
        a.sketch_flags_set = true;
        a.sketch_param_set = true;
        break;
      case kFK:
        a.pg.minhash_k = parse_number<std::uint32_t>(token, value);
        a.sketch_flags_set = true;
        a.sketch_param_set = true;
        break;
      case kFSeed:
        a.pg.seed = parse_number<std::uint64_t>(token, value);
        a.sketch_flags_set = true;
        a.sketch_param_set = true;
        break;
      case kFKClique:
        a.kclique = parse_number<unsigned>(token, value);
        break;
      case kFTau:
        a.tau = parse_number<double>(token, value);
        break;
      case kFMeasure: {
        const auto m = algo::parse_similarity_measure(value);
        if (!m) {
          fail("unknown measure '" + value +
               "' (expected jaccard, overlap, common, total, adamic, or resource)");
        }
        a.measure_cluster = *m;
        a.measure_lp = *m;
        break;
      }
      case kFThreads:
        util::set_threads(parse_number<int>(token, value));
        break;
      case kFSnapshot:
        a.snapshot = value;
        break;
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
      case kFPairs:
        a.pairs = parse_pairs(value);
        break;
      case kFKind: {
        const auto k = engine::parse_estimate_kind(value);
        if (!k) {
          fail("unknown estimate kind '" + value +
               "' (expected intersection, jaccard, overlap, common, or total)");
        }
        a.kind = *k;
        break;
      }
      case kFTopK:
        a.topk = parse_number<std::uint32_t>(token, value);
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
    if (a.exact) fail("--sketch exact has no sketches to persist");
    if (!a.kinds.empty() && a.sketch_kind_set) {
      fail("give either --sketch or --kinds, not both");
    }
  } else if (cmd.positional_is_pgs) {
    if (a.input.empty()) fail(a.command + " requires a snapshot path (<file.pgs>)");
  } else {
    if (!a.input.empty() && !a.snapshot.empty()) {
      fail("give either <graph> or --snapshot, not both ('" + a.input + "' and '" +
           a.snapshot + "')");
    }
    if (a.input.empty() && a.snapshot.empty()) {
      fail("missing input: give <graph> or --snapshot <file.pgs>");
    }
    if (!a.snapshot.empty() && !a.exact) {
      // --sketch KIND routes to that substrate of a multi-substrate
      // snapshot; the remaining sketch-construction flags have nothing to
      // configure (the file's parameters win) and are warned about.
      if (a.sketch_kind_set) a.route_kind = a.pg.kind;
      if (a.sketch_param_set) {
        std::fprintf(stderr,
                     "pgtool: warning: sketch flags other than --sketch are ignored "
                     "with --snapshot; the representation comes from the file\n");
      }
    }
  }
  if (a.command == "pair" && a.pairs.empty()) {
    fail("pair requires --pairs U:V[,U:V...]");
  }
  if (a.estimator_set && (a.exact || a.pg.kind != SketchKind::kBloomFilter)) {
    std::fprintf(stderr,
                 "pgtool: warning: --estimator only applies to --sketch bf; ignored\n");
  }
  return a;
}

void print_graph_line(const CsrGraph& g) {
  std::printf("graph: n=%u, m=%llu, d_max=%llu, d_avg=%.1f\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(g.max_degree()), g.avg_degree());
}

/// Load the command's input into an Engine, printing the banner lines the
/// serving commands have always printed (snapshot facts, then the graph).
/// An in-memory graph is sketched only where the command's query reads:
/// the DAG for the counting commands, the symmetric graph for the
/// neighborhood ones, nothing for --exact and stats.
engine::Engine make_engine(const Args& a) {
  if (!a.snapshot.empty()) {
    util::Timer load_timer;
    engine::Engine e = engine::Engine::from_snapshot(a.snapshot);
    const io::SnapshotInfo& info = *e.snapshot_info();
    std::printf("snapshot: %s, substrates [%s], %.2f MB file, loaded in %.4fs "
                "(primary construction %.4fs)\n",
                a.snapshot.c_str(), io::describe_substrates(info.substrates).c_str(),
                static_cast<double>(info.file_bytes) / 1e6, load_timer.seconds(),
                info.construction_seconds);
    print_graph_line(e.graph());
    return e;
  }
  CsrGraph g = load_graph(a.input);
  print_graph_line(g);
  const bool counting = a.command == "tc" || a.command == "4cc" || a.command == "kclique";
  std::vector<SketchKind> kinds;
  if (!a.exact && a.command != "stats") kinds.push_back(a.pg.kind);
  return engine::Engine(std::move(g), kinds, /*symmetric=*/!counting,
                        /*degree_oriented=*/counting, a.pg);
}

/// The bound line shared by the commands that surface one.
void print_bound(const engine::QueryResult& r) {
  if (!r.bound) return;
  std::printf("  deviation bound: P(|est - true| >= %s) <= %s  [%s]\n",
              engine::format_estimate(r.bound->t).c_str(),
              engine::format_estimate(r.bound->probability).c_str(), r.bound->name);
}

int run_counting(const Args& a) {
  engine::Engine e = make_engine(a);
  engine::Query q;
  if (a.command == "tc") {
    q = engine::TriangleCount{a.exact, a.route_kind};
  } else if (a.command == "4cc") {
    q = engine::FourCliqueCount{a.exact, a.route_kind};
  } else {
    q = engine::KCliqueCount{a.kclique, a.exact, a.route_kind};
  }
  const engine::QueryResult r = e.run(q);

  if (a.command == "tc") {
    if (r.exact) {
      std::printf("exact TC = %llu (%.4fs)\n",
                  static_cast<unsigned long long>(r.value), r.elapsed_seconds);
    } else {
      std::printf("%s TC ≈ %.0f (%.4fs, +%.4fs construction, relmem %.2f)\n",
                  to_string(r.sketch.kind), r.value, r.elapsed_seconds,
                  r.sketch.construction_seconds, r.sketch.relative_memory);
      print_bound(r);
    }
  } else if (a.command == "4cc") {
    if (r.exact) {
      std::printf("exact 4CC = %llu (%.4fs)\n",
                  static_cast<unsigned long long>(r.value), r.elapsed_seconds);
    } else {
      std::printf("%s 4CC ≈ %.0f (%.4fs, relmem %.2f)\n", to_string(r.sketch.kind),
                  r.value, r.elapsed_seconds, r.sketch.relative_memory);
    }
  } else {
    if (r.exact) {
      std::printf("exact %u-clique count = %llu (%.4fs)\n", a.kclique,
                  static_cast<unsigned long long>(r.value), r.elapsed_seconds);
    } else {
      std::printf("%s %u-clique count ≈ %.0f (%.4fs, relmem %.2f)\n",
                  to_string(r.sketch.kind), a.kclique, r.value, r.elapsed_seconds,
                  r.sketch.relative_memory);
    }
  }
  return 0;
}

int run_cluster(const Args& a) {
  engine::Engine e = make_engine(a);
  const engine::QueryResult r =
      e.run(engine::Cluster{a.measure_cluster, a.tau, a.exact, a.route_kind});
  if (r.exact) {
    std::printf("exact clustering: %zu clusters, %llu kept edges, %.4fs\n",
                r.cluster->num_clusters,
                static_cast<unsigned long long>(r.cluster->kept_edges),
                r.elapsed_seconds);
  } else {
    std::printf("%s clustering: %zu clusters, %llu kept edges, %.4fs "
                "(+%.4fs sketch construction, relmem %.2f)\n",
                to_string(r.sketch.kind), r.cluster->num_clusters,
                static_cast<unsigned long long>(r.cluster->kept_edges),
                r.elapsed_seconds, r.sketch.construction_seconds,
                r.sketch.relative_memory);
  }
  return 0;
}

int run_cc(const Args& a) {
  engine::Engine e = make_engine(a);
  const engine::QueryResult r = e.run(engine::ClusteringCoeff{a.exact, a.route_kind});
  if (r.exact) {
    std::printf("exact global clustering coefficient = %s (%.4fs)\n",
                engine::format_estimate(r.value).c_str(), r.elapsed_seconds);
  } else {
    std::printf("%s global clustering coefficient = %s (%.4fs, +%.4fs construction, "
                "relmem %.2f)\n",
                to_string(r.sketch.kind), engine::format_estimate(r.value).c_str(),
                r.elapsed_seconds, r.sketch.construction_seconds,
                r.sketch.relative_memory);
    print_bound(r);
  }
  return 0;
}

int run_pair(const Args& a) {
  engine::Engine e = make_engine(a);
  const engine::QueryResult r =
      e.run(engine::PairEstimate{a.kind, a.pairs, a.exact, a.route_kind});
  const char* scheme = r.exact ? "exact" : to_string(r.sketch.kind);
  for (const engine::PairValue& p : r.pairs) {
    std::printf("%s %s(%u, %u) = %s\n", scheme, engine::to_string(a.kind), p.u, p.v,
                engine::format_estimate(p.value).c_str());
  }
  print_bound(r);
  std::printf("scored %zu pair%s in %.4fs\n", r.pairs.size(),
              r.pairs.size() == 1 ? "" : "s", r.elapsed_seconds);
  return 0;
}

int run_lp(const Args& a) {
  engine::Engine e = make_engine(a);
  const engine::QueryResult r =
      e.run(engine::LinkPredict{a.topk, a.measure_lp, a.exact, a.route_kind});
  std::printf("%s top-%u predicted links by %s:\n",
              r.exact ? "exact" : to_string(r.sketch.kind), a.topk,
              to_string(a.measure_lp));
  for (const engine::PairValue& p : r.pairs) {
    std::printf("  %u %u %s\n", p.u, p.v, engine::format_estimate(p.value).c_str());
  }
  std::printf("%zu candidate link%s in %.4fs\n", r.pairs.size(),
              r.pairs.size() == 1 ? "" : "s", r.elapsed_seconds);
  return 0;
}

int run_stats(const Args& a) {
  engine::Engine e = make_engine(a);
  const engine::QueryResult r = e.run(engine::GraphStats{});
  std::printf("degree moments: sum d^2 = %.3e, sum d^3 = %.3e\n",
              r.stats->degree_moment2, r.stats->degree_moment3);
  std::printf("CSR memory: %.2f MB%s\n", static_cast<double>(r.stats->csr_bytes) / 1e6,
              r.stats->mapped ? " (mmap-served)" : "");
  if (const io::SnapshotInfo* info = e.snapshot_info()) {
    std::printf("substrates: %s\n", io::describe_substrates(info->substrates).c_str());
  }
  return 0;
}

int run_build(const Args& a) {
  const CsrGraph g = load_graph(a.input);
  print_graph_line(g);

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

/// Raw "U V" edge pairs for `update` — NOT io::read_edge_list, which builds
/// a normalized CsrGraph; a change batch keeps the pairs as written (the
/// apply layer owns normalization, live/apply.hpp).
std::vector<Edge> read_edge_pairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open edge file '" + path + "'");
  std::vector<Edge> edges;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#' || line[first] == '%') continue;
    unsigned long long u = 0;
    unsigned long long v = 0;
    if (std::sscanf(line.c_str(), "%llu %llu", &u, &v) != 2 ||
        u > std::numeric_limits<VertexId>::max() ||
        v > std::numeric_limits<VertexId>::max()) {
      fail(path + ":" + std::to_string(lineno) + ": expected 'U V' vertex ids");
    }
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  return edges;
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
  if (!a.inserts_path.empty()) file_batch.inserts = read_edge_pairs(a.inserts_path);
  if (!a.deletes_path.empty()) file_batch.deletes = read_edge_pairs(a.deletes_path);
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
