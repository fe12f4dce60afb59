#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Covers the rules the benchmark's numbers rest on: the tail-percentile
rule, the ``capacity_qps`` search, due-time accounting, the host speed
probe's window rule, and that the result line stays clean when HiGHS
writes to the process's stdout.
"""

import json
import pathlib
import subprocess
import sys
import textwrap
import time
import unittest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def _level(rate, *, valid=True, p99=0.02, failed=0.0, backlog=False):
    return {"rate_qps": rate, "valid": valid, "p99_s": p99,
            "failed_frac": failed, "backlog_growing": backlog}


class PercentileRule(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(harness.tail_percentile(19))
        self.assertEqual(harness.tail_percentile(20), 50.0)
        self.assertEqual(harness.tail_percentile(99), 50.0)
        self.assertEqual(harness.tail_percentile(100), 90.0)
        self.assertEqual(harness.tail_percentile(200), 95.0)
        self.assertEqual(harness.tail_percentile(999), 95.0)
        self.assertEqual(harness.tail_percentile(1000), 99.0)
        self.assertEqual(harness.tail_percentile(9999), 99.0)
        self.assertEqual(harness.tail_percentile(10000), 99.9)

    def test_summary_states_sample_count_and_support(self):
        values = [float(i) for i in range(1, 1501)]
        summary = harness.tail_summary(values)
        self.assertEqual(summary["n"], 1500)
        self.assertEqual(summary["tail_percentile"], 99.0)
        self.assertTrue(summary["p99_supported"])
        self.assertEqual(summary["p99"], 1485.0)
        short = harness.tail_summary(values[:216])
        self.assertEqual(short["tail_percentile"], 95.0)
        self.assertFalse(short["p99_supported"])

    def test_nearest_rank(self):
        self.assertEqual(harness.percentile([3.0, 1.0, 2.0], 50.0), 2.0)
        self.assertEqual(harness.percentile([1.0, 2.0, 3.0, 4.0], 50.0), 2.0)
        self.assertEqual(harness.percentile([5.0], 99.0), 5.0)
        with self.assertRaises(ValueError):
            harness.percentile([], 50.0)


class WindowedTail(unittest.TestCase):
    def test_one_stalled_window_does_not_set_the_tail(self):
        calm = [0.005] * 1000
        stalled = [0.005] * 900 + [0.200] * 100
        p99, per_window = harness.windowed_percentile(
            calm + stalled + calm, 99.0, 1000)
        self.assertEqual(per_window, [0.005, 0.200, 0.005])
        self.assertEqual(p99, 0.005)
        self.assertEqual(harness.percentile(calm + stalled + calm, 99.0), 0.200)

    def test_short_sample_falls_back_to_plain_percentile(self):
        values = [float(i) for i in range(1, 501)]
        p99, per_window = harness.windowed_percentile(values, 99.0, 1000)
        self.assertEqual(per_window, [495.0])
        self.assertEqual(p99, 495.0)

    def test_partial_tail_window_is_dropped(self):
        values = [1.0] * 1000 + [9.0] * 999
        _p99, per_window = harness.windowed_percentile(values, 99.0, 1000)
        self.assertEqual(per_window, [1.0])


class CapacitySearch(unittest.TestCase):
    LIMITS = {"limit_s": 0.100, "max_failed_frac": 0.01}

    def test_highest_passing_rate(self):
        levels = [_level(250), _level(500), _level(1000, p99=0.101),
                  _level(2000, failed=1.0, p99=2.0)]
        self.assertEqual(harness.capacity(levels, **self.LIMITS), 500.0)

    def test_each_limit_disqualifies(self):
        base = [_level(250)]
        for bad in (_level(500, valid=False), _level(500, p99=0.2),
                    _level(500, failed=0.0101), _level(500, backlog=True)):
            self.assertEqual(harness.capacity(base + [bad], **self.LIMITS), 250.0)

    def test_limits_are_inclusive(self):
        levels = [_level(250, p99=0.100, failed=0.01)]
        self.assertEqual(harness.capacity(levels, **self.LIMITS), 250.0)

    def test_none_passing_is_zero(self):
        levels = [_level(250, failed=0.5), _level(500, valid=False)]
        self.assertEqual(harness.capacity(levels, **self.LIMITS), 0.0)


class DueTimeAccounting(unittest.TestCase):
    def test_latency_runs_from_due_not_send(self):
        reqs = [{"due": 1.0, "sent": 1.5, "done": 1.52, "served": True}]
        self.assertAlmostEqual(harness.due_latencies(reqs, 0.1)[0], 0.52)

    def test_failed_request_counts_as_missing_the_limit(self):
        reqs = [{"due": 1.0, "sent": 1.0, "done": 1.002, "served": False},
                {"due": 2.0, "sent": 2.0, "done": 2.5, "served": False}]
        lat = harness.due_latencies(reqs, 0.1)
        self.assertEqual(lat[0], 0.1)
        self.assertAlmostEqual(lat[1], 0.5)

    def test_sheds_move_p99_past_the_limit(self):
        ok = [{"due": float(i), "sent": float(i), "done": i + 0.005,
               "served": True} for i in range(985)]
        shed = [{"due": float(i), "sent": float(i), "done": i + 0.001,
                 "served": False} for i in range(985, 1000)]
        lat = harness.due_latencies(ok + shed, 0.1)
        self.assertGreaterEqual(harness.percentile(lat, 99.0), 0.1)

    def test_backlog(self):
        flat = [{"due": float(i), "done": i + 0.005} for i in range(100)]
        rising = [{"due": float(i), "done": i + 0.005 * (1 + i)}
                  for i in range(100)]
        self.assertFalse(harness.backlog_growing(flat))
        self.assertTrue(harness.backlog_growing(rising))


class SpeedProbeFactor(unittest.TestCase):
    def _probe(self, samples):
        probe = harness.SpeedProbe.__new__(harness.SpeedProbe)
        probe.samples = samples
        return probe

    def test_window_median_averaged_over_cores(self):
        ref = harness.PROBE_REFERENCE_S
        fast = [(float(t), ref) for t in range(10)]
        # Core 1 runs at half speed inside [0, 9], then an outlier.
        slow = [(float(t), 2 * ref) for t in range(10)] + [(50.0, 9 * ref)]
        probe = self._probe({0: fast, 1: slow})
        self.assertAlmostEqual(probe.factor(0.0, 9.0), 1.5)

    def test_short_window_falls_back_to_every_sample(self):
        ref = harness.PROBE_REFERENCE_S
        samples = [(float(t), ref * (1 + t % 3)) for t in range(9)]
        probe = self._probe({0: samples})
        self.assertAlmostEqual(probe.factor(3.5, 4.5), 2.0)
        with self.assertRaises(RuntimeError):
            self._probe({0: []}).factor(0.0, 1.0)

    def test_live_probe_samples_every_core(self):
        with harness.SpeedProbe(period_s=0.01) as probe:
            time.sleep(0.3)
        self.assertTrue(all(probe.samples.values()))
        self.assertGreater(probe.factor(0.0, float("inf")), 0.0)


class NativeStdoutNoise(unittest.TestCase):
    def test_result_line_survives_highs_output(self):
        """A real MILP clear plus raw fd-1 writes leave stdout clean."""
        root = BENCH.parent
        script = textwrap.dedent(f"""
            import os, sys, json
            sys.path.insert(0, {str(BENCH)!r})
            sys.path.insert(0, {str(root / 'src')!r})
            import harness
            out = harness.protect_stdout()
            os.write(1, b"HighsMipSolverData noise\\n")
            print("print() noise")
            from repro.auction.constraints import make_constraint
            from repro.auction.selection import select_links
            from repro.resilience.chaos import micro_scenario
            net, offers, tm = micro_scenario(7)
            cons = make_constraint(1, net, tm, engine="mcf")
            sel = select_links(offers, cons, method="milp")
            out.write(json.dumps({{"cost": sel.total_cost}}) + "\\n")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, cwd=str(root),
        )
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        self.assertEqual(len(lines), 1, proc.stdout)
        self.assertGreater(json.loads(lines[0])["cost"], 0.0)
        self.assertIn("HighsMipSolverData noise", proc.stderr)


if __name__ == "__main__":
    unittest.main()
