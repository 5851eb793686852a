#!/usr/bin/env python3
"""The ProbGraph benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload mine|serve|live --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds pgtool and the helper
pgbench into .bench_build/, makes every input from --seed in a scratch
directory under .bench_work/, runs `pgtool build` and `pgtool serve`
against them, checks every reply, and prints as its last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it is the context block; both are also written to .bench_out/.
"""

import argparse
import array
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PGTOOL = os.path.join(BUILD_DIR, "probgraph", "pgtool")
PGBENCH = os.path.join(BUILD_DIR, "pgbench")

OMP_THREADS = 4        # fixed OpenMP team size of every mining query
SETUP_REPS = 7         # set-up runs per measured run; setup_s is their median
ROUNDS = 6             # a timed run repeats its phases this many times
WARMUP_S = 1.0         # client warm-up before the first timed window
SIDE_WARMUP_S = 0.3    # the same, in later rounds and in the traced run
TRACE_CLIENT_S = 2.0   # client window of the traced run
SLICE_S = 0.2          # round trips are summarised per window of this length
FIRST_REQUEST = "pair intersection 0 1"
# Sketch estimates summed by parallel reductions can differ in the last of
# the 12 printed digits from one run to the next (the summation order follows
# the thread schedule); repeated sketch replies must agree to this relative
# tolerance, and the context block counts the distinct replies seen.
SKETCH_REL_TOL = 1e-9

# Why each workload exists is written down in README.md ("Workloads").
# `share` splits --seconds between the timed phases: mining queries, point
# queries, and seals (on live, seals run beside the point queries). Each
# phase gets its share in ROUNDS equal parts, one per round.
# `readers` is the number of point-query connections.
WORKLOADS = {
    "mine": {"scale": 16, "edge_factor": 16, "kinds": "bf", "kh_share": 0.0,
             "listen": False, "live": False, "readers": 4,
             "share": {"mining": 0.45, "point": 0.3, "seal": 0.25}},
    "serve": {"scale": 16, "edge_factor": 16, "kinds": "bf,kh", "kh_share": 0.25,
              "listen": True, "live": False, "readers": 4,
              "share": {"mining": 0.3, "point": 0.5, "seal": 0.2}},
    "live": {"scale": 15, "edge_factor": 16, "kinds": "bf,kh", "kh_share": 0.25,
             "listen": True, "live": True, "readers": 3,
             "share": {"mining": 0.3, "point": 0.7}},
}

MINING = [  # (metric stem, request, sketch runs per cycle: more for the cheap ones)
    ("tc", "tc", 5),
    ("4cc", "4cc", 1),
    ("cluster", "cluster jaccard 0.1", 3),
]

END_TO_END = [  # (name, unit)
    ("setup_s", "s"), ("tc_s", "s"), ("4cc_s", "s"), ("cluster_s", "s"),
    ("tc_err", "ratio"), ("4cc_err", "ratio"), ("cluster_err", "ratio"),
    ("exact_s", "s"), ("rtt_p50_us", "us"), ("rtt_p99_us", "us"), ("qps", "1/s"),
    ("seal_ms", "ms"), ("ok_frac", "ratio"), ("rss_mb", "MB"),
]


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Statistics. A tail percentile is reported only when at least ten samples
# lie beyond it; otherwise the highest percentile that has ten is used and
# the context block says which.

def tail_index(n, q):
    """Nearest-rank index of the q-quantile of n sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def tail_percentile(samples, q, min_beyond=10):
    """(value, quantile used, samples beyond it) for sorted `samples`."""
    n = len(samples)
    if n == 0:
        raise BenchError("no samples")
    while q > 0.5 and n - (tail_index(n, q) + 1) < min_beyond:
        q = round(q - 0.01, 2) if q > 0.9 else round(q - 0.1, 1)
    i = tail_index(n, q)
    return samples[i], q, n - (i + 1)


def summarize_rtt(windows, window_s):
    """Round trips (ns) grouped by consecutive windows of the run ->
    medians over the windows of each window's p50, p99 and replies per
    second, plus the counts behind them. A window's p99 counts only when ten
    of its samples lie beyond it; if no window has that many, the pooled
    samples give the highest percentile that does. Medians over windows keep
    one stalled window from moving the run's figures."""
    p50s, p99s, rates, pooled = [], [], [], []
    for lat in windows:
        rates.append(len(lat) / window_s)
        if not lat:
            continue
        lat = sorted(lat)
        pooled.extend(lat)
        p50s.append(statistics.median(lat))
        value, q, _ = tail_percentile(lat, 0.99)
        if q == 0.99:
            p99s.append(value)
    if not p50s:
        raise BenchError("no successful point queries")
    if p99s:
        p99, q = statistics.median(p99s), 0.99
    else:
        pooled.sort()
        p99, q, _ = tail_percentile(pooled, 0.99)
    return {"rtt_p50_us": statistics.median(p50s) / 1e3, "rtt_p99_us": p99 / 1e3,
            "qps": statistics.median(rates)}, {
                "rtt_samples": len(pooled), "rtt_windows": len(windows),
                "rtt_window_s": window_s, "rtt_windows_with_p99": len(p99s),
                "rtt_tail_quantile": q}


# ---------------------------------------------------------------------------
# Reply checking (the byte-equality check of every served reply lives in
# pgbench load; these are the checks of the replies run.py reads itself: the
# first reply of each set-up and the mining replies).

def classify(got, expected):
    """'ok', 'err', 'wrong' or 'missing' for one reply line."""
    if got is None:
        return "missing"
    if got == expected:
        return "ok"
    if got.startswith("err"):
        return "err"
    return "wrong"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def add(self, verdict, what=""):
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{verdict}: {what}"
        return verdict == "ok"


def sketch_value(reply, name):
    """The estimate of a sketch mining reply, or None when malformed."""
    parts = reply.split("\t") if reply else []
    if len(parts) < 3 or parts[0] != "ok" or parts[1] != name:
        return None
    field = parts[2]
    if name == "cluster":
        if not field.startswith("clusters="):
            return None
        field = field[len("clusters="):]
    try:
        v = float(field)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def check_sketch(got, name, first):
    """(verdict, estimate) of one sketch mining reply. It is ok when it holds
    a finite estimate within SKETCH_REL_TOL of `first`, the first ok estimate
    of the same query (None while there is none)."""
    value = sketch_value(got, name)
    if value is None:
        return classify(got, None), None
    if first is not None and abs(value - first) > SKETCH_REL_TOL * abs(first):
        return "wrong", value
    return "ok", value


# ---------------------------------------------------------------------------
# Processes.

def bench_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(OMP_THREADS)
    return env


def run_tool(argv, timeout=600):
    """Run to completion; stdout is returned, stderr passes through."""
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=bench_env(), timeout=timeout, text=True)
    if p.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} {argv[1]} failed "
                         f"({p.returncode}): {p.stderr.strip()[-500:]}")
    return p.stdout


class Lines:
    """Request/reply lines over a pipe or socket, with a reply timeout."""

    def __init__(self, rfd, send):
        self.rfd = rfd
        self.send = send
        self.buf = b""

    def ask(self, line, timeout=120.0):
        self.send((line + "\n").encode())
        return self.read(timeout)

    def read(self, timeout=120.0):
        """The next line, or None at end of input or after `timeout`."""
        while b"\n" not in self.buf:
            ready, _, _ = select.select([self.rfd], [], [], timeout)
            if not ready:
                return None
            chunk = os.read(self.rfd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode()


class Server:
    """A `pgtool serve` process: the stdin REPL or a --listen server."""

    def __init__(self, argv, work, listen):
        self.listen = listen
        # One stderr file per server: port() reads the port from it, and a
        # run has up to three servers at once.
        fd, self.err_path = tempfile.mkstemp(prefix="server-", suffix=".err", dir=work)
        self.err = os.fdopen(fd, "wb")
        self.sock = None
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL if listen else subprocess.PIPE,
            stdout=subprocess.DEVNULL if listen else subprocess.PIPE,
            stderr=self.err, env=bench_env())

    def port(self, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.err_path, "rb") as f:
                m = re.search(rb"listening on 127\.0\.0\.1:(\d+)", f.read())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("server did not start: " + self.stderr_tail())

    def connect(self):
        """A Lines session: the REPL's pipes, or a new TCP connection."""
        if not self.listen:
            fd = self.proc.stdin.fileno()

            def send(b):
                while b:
                    b = b[os.write(fd, b):]
            return Lines(self.proc.stdout.fileno(), send)
        sock = socket.create_connection(("127.0.0.1", self.port()))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        return Lines(sock.fileno(), sock.sendall)

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stderr_tail(self):
        with open(self.err_path, "rb") as f:
            return f.read()[-500:].decode(errors="replace")

    def stop(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.poll() is None:
            if self.listen:
                self.proc.send_signal(signal.SIGTERM)
            else:
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if f is not None and not f.closed:
                f.close()
        self.err.close()


class Load:
    """A `pgbench load` client. Its connections stay open from the first
    round to finish(), so the server's threads and memory do not depend on
    how many rounds a run has."""

    def __init__(self, server, work, readers, writer):
        fd, self.lat_path = tempfile.mkstemp(prefix="lat-", suffix=".bin", dir=work)
        os.close(fd)
        fd, self.err_path = tempfile.mkstemp(prefix="load-", suffix=".err", dir=work)
        self.err = os.fdopen(fd, "wb")
        self.proc = subprocess.Popen(
            [PGBENCH, "load", "--port", str(server.port()), "--dir", work,
             "--readers", str(readers), "--writer", "1" if writer else "0",
             "--slice-ms", str(int(SLICE_S * 1000)), "--lat", self.lat_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, env=bench_env())
        fd = self.proc.stdin.fileno()

        def send(b):
            while b:
                b = b[os.write(fd, b):]
        self.lines = Lines(self.proc.stdout.fileno(), send)

    def round(self, warmup, seconds):
        """One round: `warmup` seconds untimed, then `seconds` timed."""
        if self.lines.ask(f"{warmup} {seconds}", timeout=warmup + seconds + 120) != "done":
            raise BenchError("load client stopped: " + self.stderr_tail())

    def finish(self):
        """Close the connections -> (summary, round trips per window)."""
        self.proc.stdin.close()
        line = self.lines.read(timeout=120)
        if self.proc.wait(timeout=120) != 0 or line is None:
            raise BenchError("load client failed: " + self.stderr_tail())
        data = array.array("Q")
        with open(self.lat_path, "rb") as f:
            data.frombytes(f.read())
        windows, pos = [], 0
        while pos < len(data):
            count = data[pos]
            windows.append(data[pos + 1:pos + 1 + count])
            pos += 1 + count
        return json.loads(line), windows

    def stderr_tail(self):
        with open(self.err_path, "rb") as f:
            return f.read()[-500:].decode(errors="replace")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if not f.closed:
                f.close()
        self.err.close()


# ---------------------------------------------------------------------------
# Build and context.

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("run from the root of a ProbGraph source checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


def dispatch_level(metrics_reply):
    m = re.search(r'probgraph_kernel_dispatch_level\{level="([a-z0-9]+)"\}=1',
                  metrics_reply or "")
    return m.group(1) if m else "unknown"


# ---------------------------------------------------------------------------
# The workload run.

class Run:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
        self.edges = os.path.join(self.work, "graph.txt")
        self.snap = os.path.join(self.work, "snap.pgs")
        self.delta_log = os.path.join(self.work, "live.pgd")
        self.tally = Tally()
        # mining replies over the run: timings per query, exact totals per
        # cycle, the first ok estimate and the distinct replies per query
        self.mining = {"times": {stem: [] for stem, _, _ in MINING}, "exact": [],
                       "estimates": {}, "variants": {}, "cycles": 0}
        self.metrics = {}
        self.context = {}
        self.servers = []
        self.loads = []

    # --- helpers

    def lines(self, name):
        with open(os.path.join(self.work, name)) as f:
            return f.read().split("\n")[:-1]

    def start_server(self, live, listen):
        argv = [PGTOOL, "serve", self.snap]
        if listen:
            argv += ["--listen", "0"]
        if live:
            argv += ["--live"]
            if self.w["live"]:
                argv += ["--delta-log", self.delta_log]
        server = Server(argv, self.work, listen)
        self.servers.append(server)
        return server

    def stop_server(self, server):
        server.stop()
        self.servers.remove(server)

    def setup_once(self):
        """Edge list -> `pgtool build` -> `pgtool serve` -> first reply."""
        for path in (self.snap, self.delta_log):
            if os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        argv = [PGTOOL, "build", self.edges, "-o", self.snap, "--orient", "both"]
        if self.w["kinds"] != "bf":
            argv += ["--kinds", self.w["kinds"]]
        run_tool(argv)
        server = self.start_server(live=self.w["live"], listen=self.w["listen"])
        conn = server.connect()
        first = conn.ask(FIRST_REQUEST)
        return time.perf_counter() - t0, server, conn, first

    # --- phases

    def mining_cycles(self, conn, cycles=None, seconds=None, timed=True):
        """Cycles of the sketch mining queries (the cheap ones several times)
        then the exact ones; check every reply. With `seconds`, a cycle
        starts only if one more of average length still ends within them.
        Timings go to self.mining unless `timed` is false (warm-up)."""
        exact = self.lines("exact.txt")
        m = self.mining
        estimates, variants = m["estimates"], m["variants"]
        times = m["times"] if timed else {stem: [] for stem, _, _ in MINING}
        t_start = time.perf_counter()
        done = 0
        def more():
            if cycles is not None:
                return done < cycles
            elapsed = time.perf_counter() - t_start
            return done == 0 or elapsed * (done + 1) / done <= seconds
        while more():
            for stem, req, runs in MINING:
                for _ in range(runs):
                    t0 = time.perf_counter()
                    got = conn.ask(req)
                    times[stem].append(time.perf_counter() - t0)
                    verdict, value = check_sketch(got, stem, estimates.get(stem))
                    if self.tally.add(verdict, req):
                        estimates.setdefault(stem, value)
                        variants.setdefault(stem, set()).add(got)
            total = 0.0
            for (_, req, _), want in zip(MINING, exact):
                t0 = time.perf_counter()
                got = conn.ask(req + " exact")
                total += time.perf_counter() - t0
                self.tally.add(classify(got, want), req + " exact")
            if timed:
                m["exact"].append(total)
                m["cycles"] += 1
            done += 1

    def report_mining(self):
        m = self.mining
        for (stem, _, _), want in zip(MINING, self.lines("exact.txt")):
            truth = sketch_value(want, stem)
            est = m["estimates"].get(stem)
            self.metrics[stem + "_s"] = statistics.median(m["times"][stem])
            self.metrics[stem + "_err"] = abs(est - truth) / truth if est is not None else math.inf
        self.metrics["exact_s"] = statistics.median(m["exact"])
        self.context["mining_cycles"] = m["cycles"]
        self.context["sketch_reply_variants"] = {k: len(v) for k, v in m["variants"].items()}

    def start_load(self, server, readers, writer):
        load = Load(server, self.work, readers, writer)
        self.loads.append(load)
        return load

    def finish_load(self, load):
        """Close `load`, add its reply tallies to the run's; -> its summary
        and round trips per window."""
        try:
            res, windows = load.finish()
        finally:
            load.stop()
            self.loads.remove(load)
        for role in ("readers", "writer"):
            if role in res:
                r = res[role]
                self.tally.attempted += r["attempted"]
                failed = r["err"] + r["wrong"] + r["missing"]
                self.tally.failed += failed
                if failed and self.tally.first_failure is None:
                    self.tally.first_failure = f"{role}: {r['first_failure']}"
        if res["failed_threads"]:
            raise BenchError("client connection failed: " + str(res))
        return res, windows

    def load_once(self, server, seconds, readers, writer):
        """One round of `seconds` on a new client -> round trips per window."""
        load = self.start_load(server, readers, writer)
        load.round(SIDE_WARMUP_S, seconds)
        return self.finish_load(load)[1]

    def report_rtt(self, windows):
        metrics, context = summarize_rtt(windows, SLICE_S)
        self.metrics.update(metrics)
        self.context.update(context)

    # --- the two run kinds

    def prepare(self):
        run_tool([PGBENCH, "prepare", "--snapshot", self.snap, "--seed", str(self.seed),
                  "--kh-share", str(self.w["kh_share"]), "--out-dir", self.work,
                  "--first", FIRST_REQUEST])

    def execute(self):
        os.makedirs(self.work, exist_ok=True)
        gen = json.loads(run_tool([PGBENCH, "gen", "--scale", str(self.w["scale"]),
                                   "--edge-factor", str(self.w["edge_factor"]),
                                   "--seed", str(self.seed), "--out", self.edges]))
        self.context.update({
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "graph": f"rmat scale={self.w['scale']} "
            f"edge_factor={self.w['edge_factor']} a,b,c=0.57,0.19,0.19",
            "graph_digest": gen["digest"], "graph_edges_generated": gen["edges"],
            "kinds": self.w["kinds"], "git_sha": git_sha(), "source_digest": source_digest(),
            "cpu_model": cpu_model(), "nproc": os.cpu_count(), "omp_threads": OMP_THREADS,
            "obs": cmake_cache("PROBGRAPH_OBS") or "ON",
            "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
            "snapshot_fs": fs_type(self.work),
        })
        reps = 1 if self.trace else SETUP_REPS
        setups, firsts = [], []
        server = conn = None
        for i in range(reps):
            if server is not None:
                self.stop_server(server)
            t, server, conn, first = self.setup_once()
            setups.append(t)
            firsts.append(first)
        self.metrics["setup_s"] = statistics.median(setups)
        self.context["setup_runs_s"] = setups
        self.prepare()
        first_want = self.lines("first.txt")[0]
        for got in firsts:
            self.tally.add(classify(got, first_want), "first reply")
        if self.trace:
            self.execute_traced(server, conn)
        else:
            self.execute_timed(server, conn)

    def execute_timed(self, server, conn):
        """ROUNDS rounds of point queries, mining queries and seals. Each
        metric is a median over samples from every round, so a slow stretch
        of the shared machine moves only the samples taken during it."""
        share = {k: v * self.seconds / ROUNDS for k, v in self.w["share"].items()}
        readers, live = self.w["readers"], self.w["live"]
        # A phase the workload's server does not serve goes to a server of its
        # own over the same snapshot: point queries need --listen (mine),
        # seals need --live (mine, serve).
        point_server = server if self.w["listen"] else self.start_server(live=False, listen=True)
        point_load = self.start_load(point_server, readers, live)
        seal_load = None if live else \
            self.start_load(self.start_server(live=True, listen=True), 0, True)
        self.mining_cycles(conn, cycles=1, timed=False)
        for r in range(ROUNDS):
            warmup = WARMUP_S if r == 0 else SIDE_WARMUP_S
            point_load.round(warmup, share["point"])
            self.mining_cycles(conn, seconds=share["mining"])
            if seal_load is not None:
                seal_load.round(warmup, share["seal"])
        res, windows = self.finish_load(point_load)
        seals = res.get("seal_ms", [])
        if seal_load is not None:
            seals += self.finish_load(seal_load)[0]["seal_ms"]
        self.report_mining()
        self.report_rtt(windows)
        self.metrics["rss_mb"] = server.rss_mb()
        self.context["dispatch"] = dispatch_level(conn.ask("metrics"))
        if not seals:
            raise BenchError("no seal completed")
        self.metrics["seal_ms"] = statistics.median(seals)
        self.context["seals"] = len(seals)

    def execute_traced(self, server, conn):
        # The client-side round trip of this run, then the in-process spans.
        readers = self.w["readers"]
        if self.w["listen"]:
            windows = self.load_once(server, TRACE_CLIENT_S, readers, self.w["live"])
            self.stop_server(server)
        else:
            self.stop_server(server)
            side = self.start_server(live=False, listen=True)
            windows = self.load_once(side, TRACE_CLIENT_S, readers, False)
            self.stop_server(side)
        self.report_rtt(windows)
        rtt_p50 = self.metrics["rtt_p50_us"]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{self.name}-seed{self.seed}-spans.tsv")
        out = run_tool([PGBENCH, "trace", "--edges", self.edges, "--snapshot", self.snap,
                        "--dir", self.work, "--kinds", self.w["kinds"], "--spans-out", spans])
        res = json.loads(out.strip().splitlines()[-1])
        self.context["dispatch"] = res["dispatch"]
        self.context["spans_file"] = os.path.relpath(spans, ROOT)
        self.context["spans"] = res["spans"]
        self.metrics = {k: v["value"] for k, v in res["metrics"].items()}
        self.units = {k: v["unit"] for k, v in res["metrics"].items()}
        self.metrics["net.rtt_p50_us"] = rtt_p50
        self.metrics["net.self_us"] = rtt_p50 - self.metrics["engine.session_us"]
        self.units.update({"net.rtt_p50_us": "us", "net.self_us": "us"})

    def cleanup(self):
        for load in self.loads:
            load.stop()
        self.loads = []
        for server in list(self.servers):
            self.stop_server(server)
        shutil.rmtree(self.work, ignore_errors=True)

    def result(self):
        if self.trace:
            metrics = {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()}
        else:
            attempted = max(self.tally.attempted, 1)
            self.metrics["ok_frac"] = (attempted - self.tally.failed) / attempted
            metrics = {name: {"value": self.metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
        correct = self.tally.failed == 0 and all(
            isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for m in metrics.values())
        if self.tally.first_failure:
            self.context["first_failure"] = self.tally.first_failure
        return {"correct": correct, "attempted": max(self.tally.attempted, 1),
                "failed": self.tally.failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed:", e)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    # A stop signal ends the run through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run.execute()
        result = run.result()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("run failed:", e)
        return 1
    finally:
        run.cleanup()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"context": run.context, "result": result}, f, indent=1)
    print(json.dumps({"context": run.context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
