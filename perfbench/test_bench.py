#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_bench.py

The generator and reply-checker tests build pgbench into .bench_build/ the
same way run.py does (the first run builds, later runs reuse the build).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.tail_percentile(list(range(999)), 0.99)[1], 0.98)
        self.assertEqual(run.tail_percentile(list(range(1000)), 0.99)[1], 0.99)
        self.assertEqual(run.tail_percentile(list(range(100000)), 0.99)[1], 0.99)

    def test_tail_percentile_falls_back_to_a_supported_quantile(self):
        samples = list(range(1000))
        value, q, beyond = run.tail_percentile(samples, 0.99)
        self.assertEqual((value, q, beyond), (989, 0.99, 10))
        value, q, beyond = run.tail_percentile(list(range(500)), 0.99)
        self.assertLess(q, 0.99)
        self.assertGreaterEqual(beyond, 10)
        self.assertEqual(value, samples[run.tail_index(500, q)])

    def test_tiny_sample_reports_the_median(self):
        _, q, _ = run.tail_percentile(list(range(5)), 0.99)
        self.assertEqual(q, 0.5)


class WindowSummary(unittest.TestCase):
    def test_one_stalled_window_does_not_move_the_figures(self):
        calm = [list(range(1000, 3000)) for _ in range(4)]
        stalled = [10**6] * 2000
        m, c = run.summarize_rtt(calm + [stalled], 0.5)
        self.assertEqual(m["rtt_p50_us"], run.summarize_rtt(calm, 0.5)[0]["rtt_p50_us"])
        self.assertEqual(m["rtt_p99_us"], 2.979)
        self.assertEqual(m["qps"], 4000)
        self.assertEqual((c["rtt_windows"], c["rtt_windows_with_p99"]), (5, 5))

    def test_small_windows_fall_back_to_the_pooled_tail(self):
        m, c = run.summarize_rtt([list(range(100)), list(range(100, 200))], 1.0)
        self.assertEqual(c["rtt_windows_with_p99"], 0)
        self.assertLess(c["rtt_tail_quantile"], 0.99)
        self.assertEqual(m["qps"], 100)


class ReplyChecker(unittest.TestCase):
    def test_verdicts(self):
        want = "ok\ttc\t42"
        self.assertEqual(run.classify(want, want), "ok")
        self.assertEqual(run.classify("ok\ttc\t43", want), "wrong")
        self.assertEqual(run.classify("err\tno DAG substrate", want), "err")
        self.assertEqual(run.classify(None, want), "missing")

    def test_tally_counts_every_failure(self):
        t = run.Tally()
        for verdict in ("ok", "err", "wrong", "missing"):
            t.add(verdict, verdict)
        self.assertEqual((t.attempted, t.failed, t.first_failure), (4, 3, "err: err"))

    def test_sketch_values_must_be_finite(self):
        self.assertEqual(run.sketch_value("ok\ttc\t12.5", "tc"), 12.5)
        self.assertEqual(run.sketch_value("ok\tcluster\tclusters=9\tkept_edges=3", "cluster"), 9)
        self.assertIsNone(run.sketch_value("ok\ttc\tnan", "tc"))
        self.assertIsNone(run.sketch_value("ok\ttc\tinf", "tc"))
        self.assertIsNone(run.sketch_value("err\tboom", "tc"))
        self.assertIsNone(run.sketch_value(None, "tc"))

    def test_sketch_replies_are_checked_against_the_first_ok_estimate(self):
        self.assertEqual(run.check_sketch("ok\ttc\t12.5", "tc", None), ("ok", 12.5))
        self.assertEqual(run.check_sketch("ok\ttc\t12.5", "tc", 12.5), ("ok", 12.5))
        self.assertEqual(run.check_sketch("ok\ttc\t13", "tc", 12.5), ("wrong", 13))
        self.assertEqual(run.check_sketch("ok\ttc\tnan", "tc", None), ("wrong", None))
        self.assertEqual(run.check_sketch("err\tboom", "tc", None), ("err", None))
        self.assertEqual(run.check_sketch(None, "tc", 12.5), ("missing", None))


class FakeConn:
    """Answers each exact mining query correctly and every other request
    with `reply`."""

    def __init__(self, exact, reply):
        self.exact = exact
        self.reply = reply

    def ask(self, line):
        return self.exact.get(line, self.reply)


class MiningCheck(unittest.TestCase):
    EXACT = ["ok\ttc\t100", "ok\t4cc\t10", "ok\tcluster\tclusters=50\tkept_edges=7"]

    def mine(self, reply):
        with tempfile.TemporaryDirectory() as d:
            r = run.Run("mine", 1, 1, 0)
            r.work = d
            with open(os.path.join(d, "exact.txt"), "w") as f:
                f.write("\n".join(self.EXACT) + "\n")
            conn = FakeConn({req + " exact": want
                             for (_, req, _), want in zip(run.MINING, self.EXACT)}, reply)
            r.mining_cycles(conn, cycles=1, timed=False)
            r.mining_cycles(conn, cycles=1)
            r.report_mining()
        return r

    def test_every_sketch_reply_an_err_is_counted(self):
        r = self.mine("err\tno DAG substrate")
        sketch = 2 * sum(runs for _, _, runs in run.MINING)
        self.assertEqual((r.tally.attempted, r.tally.failed), (sketch + 6, sketch))
        self.assertEqual(r.metrics["tc_err"], float("inf"))

    def test_finite_sketch_replies_pass(self):
        r = self.mine("ok\ttc\t150")
        self.assertEqual(r.tally.failed, 2 * sum(runs for stem, _, runs in run.MINING
                                                 if stem != "tc"))
        self.assertEqual(r.metrics["tc_err"], 0.5)


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def gen(self, path, seed):
        out = subprocess.run([run.PGBENCH, "gen", "--scale", "10", "--edge-factor", "8",
                              "--seed", str(seed), "--out", path],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out)["digest"]

    def test_generator_digest_is_fixed_by_the_seed(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as d:
            a = self.gen(os.path.join(d, "a.txt"), 7)
            b = self.gen(os.path.join(d, "b.txt"), 7)
            c = self.gen(os.path.join(d, "c.txt"), 8)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(a, GOLDEN_DIGEST_SCALE10_EF8_SEED7)

    def test_timed_run_on_a_small_graph(self):
        # Every phase in rounds: the load clients keep their connections
        # across rounds and return the timed windows of all of them. At 6
        # seconds each round of point queries has at least one whole window.
        seconds = 6.0
        for name in ("mine", "live"):
            with self.subTest(workload=name):
                r = run.Run(name, 3, seconds, 0)
                r.w = dict(r.w, scale=8, edge_factor=8)
                try:
                    r.execute()
                    result = r.result()
                finally:
                    r.cleanup()
                self.assertTrue(result["correct"], r.context.get("first_failure"))
                point_s = r.w["share"]["point"] * seconds / run.ROUNDS
                self.assertEqual(r.context["rtt_windows"],
                                 run.ROUNDS * int(point_s / run.SLICE_S))
                self.assertGreaterEqual(r.context["mining_cycles"], run.ROUNDS)
                self.assertGreater(r.context["seals"], 0)

    def test_program_selftest(self):
        # The C++ reply checker used by the load client: a corrupted reply,
        # an err reply and a missing reply are each flagged.
        p = subprocess.run([run.PGBENCH, "selftest"], capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)


# The generator's output for one fixed input, on any machine and thread count.
GOLDEN_DIGEST_SCALE10_EF8_SEED7 = "50a4670766d2fdb6"


if __name__ == "__main__":
    unittest.main()
