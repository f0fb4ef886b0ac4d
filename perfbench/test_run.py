#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and output format.

    python3 perfbench/test_run.py

Covers the percentile rule (at least ten samples beyond a reported tail,
sample count stated), the error-rate denominator, the metric-name charset,
that every metric has a unit, that BENCHMARK.json lists exactly the metrics
run.py prints, and the shape of the final output line. Needs no build.
"""

import json
import math
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def raw_report(attempted=100, failed=0, values=None, samples=None):
    return {"attempted": attempted, "failed": failed,
            "values": values or {}, "samples": samples or {}}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 0.5), 50)
        self.assertEqual(run.nearest_rank(values, 0.99), 99)
        self.assertEqual(run.nearest_rank(values, 1.0), 100)
        self.assertEqual(run.nearest_rank([7.0], 0.99), 7.0)

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990, exactly 10 beyond -> p99 is reported.
        value, used, n = run.tail(list(range(1000)), 0.99)
        self.assertEqual((used, n), (0.99, 1000))
        self.assertEqual(value, 989)
        self.assertEqual(run.beyond(1000, 0.99), 10)
        # 999 samples: only 9 beyond p99 -> falls back to p95.
        _, used, n = run.tail(list(range(999)), 0.99)
        self.assertEqual((used, n), (0.95, 999))

    def test_ladder_and_median_fallback(self):
        self.assertEqual(run.tail(list(range(100)), 0.99)[1], 0.9)
        self.assertEqual(run.tail(list(range(40)), 0.99)[1], 0.75)
        self.assertEqual(run.tail(list(range(5)), 0.99)[1], 0.5)

    def test_note_states_sample_count_and_fallback(self):
        raw = raw_report(samples={"read_ms": [float(i) for i in range(500)]},
                         values={"tail_q": 0.99})
        metrics = run.compute_metrics(raw, run.END_TO_END)
        _, _, note = metrics["read_tail_ms"]
        self.assertIn("of 500 samples", note)
        self.assertIn("p95", note)
        self.assertIn("fewer than 10 beyond", note)
        self.assertIn("of 500 samples", metrics["read_p50_ms"][2])


class ErrorRate(unittest.TestCase):
    def test_denominator_is_every_attempted_operation(self):
        self.assertEqual(run.ok_frac(1000, 0), 1.0)
        self.assertAlmostEqual(run.ok_frac(1000, 3), 0.997)
        self.assertEqual(run.ok_frac(4, 4), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            run.ok_frac(0, 0)

    def test_failure_makes_result_incorrect(self):
        raw = raw_report(attempted=10, failed=1)
        metrics = run.compute_metrics(raw, run.END_TO_END)
        self.assertEqual(metrics["ok_frac"][0], 0.9)
        self.assertFalse(json.loads(run.format_result(raw, metrics))["correct"])


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, (unit, _) in table.items():
                self.assertRegex(name, NAME_RE)
                self.assertRegex(unit, UNIT_RE, name)
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(len(listed), len(bench[key]), "duplicate name")
            self.assertEqual(listed, {n: u for n, (u, _) in table.items()})
            for m in bench[key]:
                self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class OutputLine(unittest.TestCase):
    def check(self, trace):
        table = run.PER_LAYER if trace else run.END_TO_END
        raw = raw_report(values={"tail_q": 0.95},
                         samples={"setup_s": [0.3, 0.2, 0.4],
                                  "window.qps": [15.0, 10.0, 12.5],
                                  "read_ms": [1.0] * 50})
        line = run.format_result(raw, run.compute_metrics(raw, table))
        result = json.loads(line)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(table))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        self.assertTrue(result["correct"])
        return result

    def test_end_to_end_line(self):
        result = self.check(trace=0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.3)
        self.assertEqual(result["metrics"]["qps"]["value"], 12.5)

    def test_per_layer_line_zero_for_bypassed_layers(self):
        result = self.check(trace=1)
        self.assertEqual(result["metrics"]["net.overhead_ms_p50"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
