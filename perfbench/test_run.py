"""Tests of run.py's percentile arithmetic.

Run from the root of a checkout: python3 -m unittest perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(run.nearest_rank(xs, 50), 50)
        self.assertEqual(run.nearest_rank(xs, 90), 90)
        self.assertEqual(run.nearest_rank(xs, 99), 99)
        self.assertEqual(run.nearest_rank([7], 50), 7)
        self.assertEqual(run.nearest_rank([1, 2, 3], 34), 2)

    def test_samples_beyond(self):
        self.assertEqual(run.beyond(100, 90), 10)
        self.assertEqual(run.beyond(1000, 99), 10)
        self.assertEqual(run.beyond(20, 50), 10)
        self.assertEqual(run.beyond(21, 50), 10)

    def test_ten_beyond_rule(self):
        # p99 needs 1000 samples, p90 100, the median 20.
        self.assertEqual(run.min_samples(99), 1000)
        self.assertEqual(run.min_samples(90), 100)
        self.assertEqual(run.min_samples(50), 20)
        for q in range(50, 100):
            n = run.min_samples(q)
            self.assertGreaterEqual(run.beyond(n, q), 10)
            self.assertLess(run.beyond(n - 1, q), 10)
        # A fractional percentile keeps exact ranks: p99.8 needs 5000.
        self.assertEqual(run.min_samples(99.8), 5000)
        self.assertEqual(run.nearest_rank(list(range(1, 5001)), 99.8), 4990)

    def test_every_workload_has_a_fixed_tail(self):
        self.assertEqual(set(run.TAIL_Q), set(run.WORKLOADS))
        self.assertEqual([run.min_samples(run.TAIL_Q[w]) for w in run.WORKLOADS],
                         [25, 50, 67, 5000])

    def test_latency_summary(self):
        xs = [float(i) for i in range(100, 0, -1)]
        s = run.latency_summary(xs, 90)
        self.assertEqual((s["q"], s["n"], s["beyond"]), (90, 100, 10))
        self.assertEqual(s["tail"], 90.0)
        self.assertEqual(s["p50"], 50.5)
        # More samples keep the percentile: only its rank moves.
        s = run.latency_summary([float(i) for i in range(1, 201)], 90)
        self.assertEqual((s["q"], s["tail"], s["beyond"]), (90, 180.0, 20))
        with self.assertRaises(run.Failure):
            run.latency_summary([1.0] * 99, 90)


    def test_serve_metrics(self):
        tick = run.os.sysconf("SC_CLK_TCK")
        windows = [{"wall_s": 2.0, "cpu_ticks": tick * c, "verdicts": v,
                    "latencies_ms": [float(i) for i in range(k, 3000, 3)]}
                   for c, v, k in ((1, 1000, 1), (4, 2000, 2), (1, 4000, 3))]
        m, lat = run.serve_metrics(windows, 99)
        self.assertEqual(m["verdicts_per_s"], 1000.0)      # 500, 1000, 2000
        self.assertEqual(m["cpu_ms_per_verdict"], 1.0)     # 1.0, 2.0, 0.25
        # The windows pool to 1..2999: p99 over all of them.
        self.assertEqual((lat["n"], lat["beyond"]), (2999, 29))
        self.assertEqual(m["latency_tail_ms"], 2970.0)
        self.assertEqual(m["latency_p50_ms"], 1500.0)
        with self.assertRaises(run.Failure):
            run.serve_metrics([dict(windows[0], latencies_ms=[1.0] * 999)], 99)


if __name__ == "__main__":
    unittest.main()
