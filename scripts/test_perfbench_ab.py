#!/usr/bin/env python3
"""Self-test of scripts/perfbench_ab.py on canned perfbench result lines:
the quartile arithmetic, the change/parent ratio and pair wins, the
alternating run order, and the non-zero exit on a run with failures. Runs
no benchmark. Run directly or via ctest.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_ab as ab  # noqa: E402


def result_line(qps, tail, failed=0, attempted=100):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"qps": {"value": qps, "unit": "1/s"},
                    "read_tail_ms": {"value": tail, "unit": "ms"}}})


class Arithmetic(unittest.TestCase):
    def test_quantiles_interpolate_between_ranks(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(ab.quantile(values, 0.5), 3.0)
        self.assertEqual(ab.quantile(values, 0.25), 2.0)
        self.assertEqual(ab.quantile(values, 0.75), 4.0)
        self.assertEqual(ab.quantile([1.0, 2.0], 0.5), 1.5)
        self.assertEqual(ab.quantile([1.0, 2.0, 3.0, 4.0], 0.25), 1.75)
        self.assertEqual(ab.quantile([7.0], 0.75), 7.0)

    def test_parse_takes_the_last_line(self):
        out = "# qps 1 1/s\n# noise\n" + result_line(30.0, 140.0) + "\n"
        result = ab.parse_run(out)
        self.assertEqual(result["metrics"]["qps"]["value"], 30.0)
        with self.assertRaises(ValueError):
            ab.parse_run("")
        with self.assertRaises(ValueError):
            ab.parse_run('{"something": 1}')

    def test_summary_medians_ratio_and_wins(self):
        parent = [ab.parse_run(result_line(q, t)) for q, t in
                  ((30.0, 140.0), (32.0, 130.0), (31.0, 150.0))]
        change = [ab.parse_run(result_line(q, t)) for q, t in
                  ((36.0, 120.0), (38.0, 135.0), (29.0, 110.0))]
        rows = ab.summarize(parent, change,
                            {"qps": "higher", "read_tail_ms": "lower"})
        by_name = {r[0]: r for r in rows}
        name, unit, p, c, ratio, wins = by_name["qps"]
        self.assertEqual(unit, "1/s")
        self.assertEqual(p, (31.0, 30.5, 31.5))
        self.assertEqual(c, (36.0, 32.5, 37.0))
        self.assertAlmostEqual(ratio, 36.0 / 31.0)
        self.assertEqual(wins, 2)  # The third pair is worse.
        _, _, p, c, ratio, wins = by_name["read_tail_ms"]
        self.assertEqual(p[0], 140.0)
        self.assertEqual(c[0], 120.0)
        self.assertEqual(wins, 2)  # Lower is better; 135 > 130 loses.
        # No direction known: no win count.
        self.assertIsNone(ab.summarize(parent, change, {})[0][5])
        lines = ab.format_rows(rows, 3)
        self.assertEqual(len(lines), 3)
        self.assertIn("31 [30.5, 31.5]", lines[1])
        self.assertIn("2/3", lines[1])


class Driver(unittest.TestCase):
    def fake_runner(self, results):
        calls = []

        def runner(checkout, workload, seed, seconds):
            calls.append(checkout)
            return ab.parse_run(results[checkout].pop(0))
        return runner, calls

    def run_main(self, results, pairs, change_dir="change"):
        runner, calls = self.fake_runner(results)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ab.main(["--parent", "parent", "--change", change_dir,
                            "--workload", "micro_serial", "--seed", "1",
                            "--pairs", str(pairs), "--seconds", "1"],
                           runner=runner)
        return code, calls, out.getvalue()

    def test_alternating_order_and_clean_exit(self):
        with tempfile.TemporaryDirectory() as change:
            with open(os.path.join(change, "BENCHMARK.json"), "w") as f:
                json.dump({"end_to_end": [{"name": "qps",
                                           "better": "higher"}]}, f)
            results = {"parent": [result_line(30.0, 1.0)] * 3,
                       change: [result_line(33.0, 1.0)] * 3}
            code, calls, out = self.run_main(results, 3, change)
        self.assertEqual(code, 0)
        self.assertEqual(calls, ["parent", change, change, "parent",
                                 "parent", change])
        self.assertIn("1.1000", out)
        self.assertIn("3/3", out)

    def test_failed_operations_exit_non_zero(self):
        results = {"parent": [result_line(30.0, 1.0)] * 2,
                   "change": [result_line(33.0, 1.0),
                              result_line(33.0, 1.0, failed=1)]}
        code, calls, out = self.run_main(results, 2)
        self.assertEqual(code, 1)
        self.assertEqual(len(calls), 4)  # Every run still happens.
        self.assertIn("qps", out)

    def test_broken_run_exits_non_zero(self):
        def runner(checkout, workload, seed, seconds):
            raise RuntimeError("perfbench exited with 1")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = ab.main(["--parent", "p", "--change", "c", "--workload",
                            "micro_serial", "--seed", "1", "--pairs", "1",
                            "--seconds", "1"], runner=runner)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
