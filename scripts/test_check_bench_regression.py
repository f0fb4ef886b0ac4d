#!/usr/bin/env python3
"""Self-test of the CI perf-regression gate: proves, with doctored bench
JSONs, that the gate passes on unchanged results and demonstrably fails on a
>25% simulated-cost regression, a shared-scan fetch-ratio regression, a
dropped row, a parallel Smooth Scan row beyond its bound on the serial
operator, and a serial SortScan or IndexScan wall time beyond its bound on
FullScan's.
Run directly (CI) or via ctest.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402

BASELINE = {
    "bench": "shared_scan",
    "rows": [
        {"series": "shared", "sel_pct": 1.0, "sim_time": 1000.0,
         "clients": 4.0, "pages_vs_solo": 1.0, "wall_ms": 5.0},
        {"series": "full unshared", "sel_pct": 1.0, "sim_time": 4000.0,
         "clients": 4.0, "pages_vs_solo": 4.0, "wall_ms": 9.0},
    ],
}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "base")
        self.fresh_dir = os.path.join(self.tmp.name, "fresh")
        os.makedirs(self.base_dir)
        os.makedirs(self.fresh_dir)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, dirname, payload):
        with open(os.path.join(dirname, "BENCH_shared_scan.json"), "w") as f:
            json.dump(payload, f)

    def run_gate(self):
        return gate.main(["--baseline-dir", self.base_dir,
                          "--fresh-dir", self.fresh_dir, "shared_scan"])

    def test_identical_results_pass(self):
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, BASELINE)
        self.assertEqual(self.run_gate(), 0)

    def test_wall_clock_jitter_is_ignored(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["wall_ms"] = 500.0  # 100x wall noise: irrelevant.
        fresh["rows"][0]["sim_time"] = 1100.0  # +10%: inside threshold.
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_sim_time_regression_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["sim_time"] = 1300.0  # +30% > 25% threshold.
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_sim_time_improvement_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["sim_time"] = 100.0
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_fetch_ratio_regression_fails(self):
        fresh = copy.deepcopy(BASELINE)
        # Sharing quietly stopped collapsing passes: 1.0 -> 1.5 pages/solo,
        # even though sim_time is unchanged.
        fresh["rows"][0]["pages_vs_solo"] = 1.5
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_dropped_row_fails(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["rows"][1]
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_new_row_without_baseline_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"].append({"series": "shared", "sel_pct": 2.0,
                              "sim_time": 2000.0, "clients": 8.0})
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_rows_differing_only_in_threads_gate_independently(self):
        base = copy.deepcopy(BASELINE)
        # A parallel leg of the same series/sel_pct: distinct by threads.
        base["rows"].append({"series": "shared", "sel_pct": 1.0,
                             "sim_time": 1000.0, "clients": 4.0,
                             "threads": 4.0})
        fresh = copy.deepcopy(base)
        fresh["rows"][-1]["sim_time"] = 2000.0  # Only the parallel leg.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)  # Not shadowed by the serial leg.

    def test_duplicate_row_keys_fail(self):
        base = copy.deepcopy(BASELINE)
        base["rows"].append(copy.deepcopy(base["rows"][0]))  # True shadow.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, base)
        self.assertEqual(self.run_gate(), 1)

    def test_timing_dependent_rows_not_gated(self):
        base = copy.deepcopy(BASELINE)
        base["rows"][0]["timing_dependent"] = 1.0
        fresh = copy.deepcopy(base)
        fresh["rows"][0]["sim_time"] = 9000.0     # Way past threshold...
        fresh["rows"][0]["pages_vs_solo"] = 3.0   # ...and ratio: advisory.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)
        del fresh["rows"][0]                      # But presence still gates.
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_missing_baseline_file_is_skipped(self):
        self.write(self.fresh_dir, BASELINE)
        self.assertEqual(self.run_gate(), 0)

    def test_missing_fresh_file_fails(self):
        self.write(self.base_dir, BASELINE)
        self.assertEqual(self.run_gate(), 1)


def wall_rows(sort_wall_ms, full_wall_ms=10.0, index_wall_ms=100.0):
    """fig05's serial FullScan, SortScan and IndexScan rows at 100% (plus a
    parallel FullScan row and a SortScan row at 50%, which the wall bounds
    ignore)."""
    return [
        {"series": "FullScan", "sel_pct": 100.0, "sim_time": 4413.0,
         "wall_ms": full_wall_ms, "threads": 1},
        {"series": "SortScan", "sel_pct": 100.0, "sim_time": 6889.8,
         "wall_ms": sort_wall_ms, "threads": 1},
        {"series": "IndexScan", "sel_pct": 100.0, "sim_time": 82000.0,
         "wall_ms": index_wall_ms, "threads": 1},
        {"series": "ParFullScan dop=2", "sel_pct": 100.0,
         "sim_time": 4413.0, "wall_ms": 1.0, "threads": 2},
        {"series": "SortScan", "sel_pct": 50.0, "sim_time": 5000.0,
         "wall_ms": 900.0, "threads": 1},
    ]


def smooth_rows(bench, serial, parallel, sel_pct, parallel_sim):
    """A bench file with one serial Smooth Scan row (sim 1000) and its
    parallel legs at `parallel_sim`; a fig05 file also carries the serial
    rows the wall bound needs, well within it."""
    rows = [{"series": serial, "sel_pct": sel_pct, "sim_time": 1000.0,
             "threads": 1}]
    for dop in (1, 8):
        rows.append({"series": f"{parallel} dop={dop}", "sel_pct": sel_pct,
                     "sim_time": parallel_sim, "threads": dop})
    if bench == "fig05_selectivity":
        rows += wall_rows(22.0)
    return {"bench": bench, "rows": rows}


class WithinFileGateTest(unittest.TestCase):
    """Runs the gate on one bench file whose baseline equals the fresh run,
    so only the within-file bounds can fail."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, payload):
        bench = payload["bench"]
        for sub in ("base", "fresh"):
            os.makedirs(os.path.join(self.tmp.name, sub), exist_ok=True)
            with open(os.path.join(self.tmp.name, sub,
                                   f"BENCH_{bench}.json"), "w") as f:
                json.dump(payload, f)
        return gate.main(["--baseline-dir", os.path.join(self.tmp.name, "base"),
                          "--fresh-dir", os.path.join(self.tmp.name, "fresh"),
                          bench])


class ParallelSmoothBoundTest(WithinFileGateTest):
    """The within-file bound: parallel Smooth Scan <= 1.35x serial."""

    CASES = [("fig05_selectivity", "SmoothScan", "ParSmoothScan", 20.0),
             ("fig04_tpch", "Q4 Smooth", "Q4 Smooth", 65.0)]

    def test_restarting_regions_ratio_fails(self):
        # 1.79x: every morsel restarting its region at one page.
        for bench, serial, parallel, sel in self.CASES:
            with self.subTest(bench=bench):
                self.assertEqual(self.run_gate(
                    smooth_rows(bench, serial, parallel, sel, 1790.0)), 1)

    def test_carried_morph_state_ratio_passes(self):
        for bench, serial, parallel, sel in self.CASES:
            with self.subTest(bench=bench):
                self.assertEqual(self.run_gate(
                    smooth_rows(bench, serial, parallel, sel, 1300.0)), 0)

    def test_parallel_row_without_serial_row_fails(self):
        payload = smooth_rows("fig05_selectivity", "SmoothScan",
                              "ParSmoothScan", 20.0, 1000.0)
        payload["rows"][0]["sel_pct"] = 100.0  # Serial row elsewhere.
        self.assertEqual(self.run_gate(payload), 1)

    def test_other_benches_are_not_bounded(self):
        self.assertEqual(self.run_gate(
            smooth_rows("concurrent", "smooth", "smooth", 1.0, 5000.0)), 0)


def fig05(rows):
    return {"bench": "fig05_selectivity", "rows": rows}


class SortScanWallRatioTest(WithinFileGateTest):
    """The within-file wall bound: serial SortScan <= 5x FullScan at 100%."""

    def test_streamed_heap_phase_passes(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(22.0))), 0)  # 2.2x.

    def test_buffered_heap_phase_fails(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(140.0))), 1)  # 14x.

    def test_just_above_the_bound_fails(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(50.1))), 1)

    def test_missing_row_fails(self):
        for series in ("SortScan", "FullScan"):
            with self.subTest(series=series):
                rows = [r for r in wall_rows(22.0)
                        if not (r["series"] == series and
                                r["sel_pct"] == 100.0)]
                self.assertEqual(self.run_gate(fig05(rows)), 1)

    def test_other_benches_are_not_bounded(self):
        payload = {"bench": "fig04_tpch", "rows": wall_rows(140.0)}
        self.assertEqual(self.run_gate(payload), 0)


class IndexScanWallRatioTest(WithinFileGateTest):
    """The within-file wall bound: serial IndexScan <= 16x FullScan at 100%."""

    def test_pin_free_look_ups_pass(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(
            22.0, index_wall_ms=110.0))), 0)  # 11x.

    def test_pinned_look_ups_fail(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(
            22.0, index_wall_ms=206.0))), 1)  # 20.6x.

    def test_just_above_the_bound_fails(self):
        self.assertEqual(self.run_gate(fig05(wall_rows(
            22.0, index_wall_ms=160.1))), 1)

    def test_missing_row_fails(self):
        rows = [r for r in wall_rows(22.0)
                if not (r["series"] == "IndexScan" and r["sel_pct"] == 100.0)]
        self.assertEqual(self.run_gate(fig05(rows)), 1)

    def test_parallel_row_is_not_the_serial_row(self):
        rows = wall_rows(22.0)
        for row in rows:
            if row["series"] == "IndexScan":
                row["threads"] = 2
        self.assertEqual(self.run_gate(fig05(rows)), 1)


if __name__ == "__main__":
    unittest.main()
