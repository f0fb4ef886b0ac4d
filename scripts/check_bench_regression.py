#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json trajectory.

Compares freshly-run bench JSONs against the baselines committed at the repo
root and fails (exit 1) when a row's *simulated* cost regresses by more than
the threshold, or when a shared-scan row's aggregate fetch ratio
(pages_vs_solo) regresses at all. Wall-clock columns are never compared
with the baseline: CI hardware jitters, simulated cost does not.

Rows are matched by (series, sel_pct[, clients]) within a bench. A baseline
row missing from the fresh run fails the gate (a bench silently dropped
coverage); fresh rows without a baseline are reported but pass (new
coverage). A fresh bench file with no committed baseline is skipped with a
note — bless it by copying the JSON to the repo root.

A second, within-file gate keeps the paper's bounded worst case under
parallelism: in each fresh run, every parallel Smooth Scan row may cost at
most PARALLEL_SMOOTH_MAX_RATIO times the serial Smooth Scan row it
parallelizes (same series stem, same sel_pct). Simulated time is
deterministic, so this ratio needs no allowance for jitter.

A third gate is the one on wall clock, and it too stays within one fresh
file: in fig05, each serial row named in WALL_RATIO_BOUNDS (SortScan,
IndexScan) at sel_pct 100 may take at most its bound times the wall_ms of
the serial FullScan row beside it (a missing row fails). The rows ran
seconds apart on the same host, so the ratio survives jitter that absolute
wall times do not.

A fourth set of gates, again within one fresh file, states the shapes of
the paper's figures in bench_paper_figures' file (bounds set from its first
committed run): fig08's Elastic Smooth Scan under skew stays within
FIG08_ELASTIC_MAX_RATIO of the cheaper of FullScan and IndexScan; fig11's
SwitchScan jumps by at least FIG11_SWITCH_MIN_JUMP across the optimizer
estimate while SmoothScan rises by at most FIG11_SMOOTH_MAX_STEP over the
same step (the cliff, and the absence of one); and the batch-size ablation's
simulated time is the same at every batch size. A row any of them needs and
cannot find fails.

Usage:
  check_bench_regression.py --baseline-dir . --fresh-dir bench-json \
      [--threshold 0.25] [bench names...]

With no bench names, every BENCH_*.json present in --fresh-dir is checked.
"""

import argparse
import glob
import json
import os
import re
import sys

# Relative sim_time increase tolerated before the gate trips.
DEFAULT_THRESHOLD = 0.25
# Ignore regressions on rows whose baseline cost is below this (noise floor).
MIN_BASELINE_SIM_TIME = 1.0
# Absolute slack for fetch-ratio comparisons (pages_vs_solo is a ratio ~1-8).
FETCH_RATIO_SLACK = 0.01
# Parallel Smooth Scan vs its serial row, within one fresh file.
PARALLEL_SMOOTH_MAX_RATIO = 1.35
# Bench -> pattern of its parallel Smooth Scan series; group 1 names the
# serial series the row is bounded against.
PARALLEL_SMOOTH_SERIES = {
    "fig05_selectivity": re.compile(r"^Par(SmoothScan) dop=\d+$"),
    "fig04_tpch": re.compile(r"^(Q\d+ Smooth) dop=\d+$"),
}
# Serial look-up paths vs FullScan wall time at 100% selectivity, within one
# fresh fig05 file. SortScan: simulated, it costs 1.56x FullScan there; a
# streamed heap phase reads about 2x in wall time, and one that buffers every
# row 14x. IndexScan: one heap look-up per row; a look-up that pins its page
# in the query pool and the engine pool read 20.6x, a pin-free one over
# direct page tables 8.0-12.8x in ten runs.
WALL_RATIO_BOUNDS = {"SortScan": 5.0, "IndexScan": 16.0}
WALL_RATIO_BENCH = "fig05_selectivity"
WALL_RATIO_SEL_PCT = 100.0

PAPER_FIGURES_BENCH = "paper_figures"
# fig08: Elastic vs the cheaper fixed path. First run: 1,809.4 against
# IndexScan's 1,717.2 (1.054x); Selectivity-Increase reads 2.23x.
FIG08_ELASTIC_MAX_RATIO = 1.10
# fig11, between the last selectivity whose result fits the optimizer
# estimate (the SwitchScan rows' `estimate`) and the first that exceeds it.
# First run: SwitchScan 290.0 -> 4,693.0 (16.2x), SmoothScan 304.9 -> 441.8
# (1.45x).
FIG11_SWITCH_MIN_JUMP = 10.0
FIG11_SMOOTH_MAX_STEP = 2.0
# Batch-size ablation: sim_time equal across batch sizes, relatively.
BATCH_SIM_REL_TOL = 1e-9
BATCH_SERIES = re.compile(r"^ablation batch=\d+ (.+)$")


def row_key(row):
    # series + x-axis + every sweep dimension present: serial vs parallel
    # legs of one series differ only in `threads`, client sweeps in
    # `clients` — both must key, or legs shadow each other in the dict.
    key = (row.get("series"), round(float(row.get("sel_pct", 0.0)), 6))
    for dim in ("clients", "threads"):
        if dim in row:
            key += (dim, round(float(row[dim]), 6))
    return key


def load_bench(path):
    """Returns ({key: row}, [duplicate keys])."""
    with open(path) as f:
        data = json.load(f)
    rows = {}
    duplicates = []
    for row in data.get("rows", []):
        key = row_key(row)
        if key in rows:
            duplicates.append(key)
        rows[key] = row
    return rows, duplicates


def error(msg):
    # GitHub annotation when running in Actions; plain line otherwise.
    print(f"::error::{msg}" if os.environ.get("GITHUB_ACTIONS") else
          f"ERROR: {msg}")


def check_bench(name, baseline_path, fresh_path, threshold):
    """Returns (failures, notes) for one bench."""
    failures = []
    notes = []
    if not os.path.exists(baseline_path):
        notes.append(f"{name}: no committed baseline at {baseline_path} — "
                     "skipped (bless by committing the fresh JSON)")
        return failures, notes
    baseline, base_dups = load_bench(baseline_path)
    fresh, fresh_dups = load_bench(fresh_path)
    # A duplicate key means rows shadow each other in this comparison and
    # some are silently ungated — refuse to pretend the gate covered them.
    for key in base_dups:
        failures.append(f"{name} {key}: duplicate row key in baseline "
                        "(rows shadow each other; extend row_key dims)")
    for key in fresh_dups:
        failures.append(f"{name} {key}: duplicate row key in fresh run")

    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        label = f"{name} {key}"
        if fresh_row is None:
            failures.append(f"{label}: row missing from fresh run "
                            "(bench dropped coverage)")
            continue
        # Rows a bench marks timing_dependent (e.g. shared-SmoothScan
        # savings, which hinge on wall-clock races between peers) cannot be
        # gated on magnitude — presence is the whole check.
        if float(base_row.get("timing_dependent", 0.0)) != 0.0 or \
                float(fresh_row.get("timing_dependent", 0.0)) != 0.0:
            continue
        base_sim = float(base_row.get("sim_time", 0.0))
        fresh_sim = float(fresh_row.get("sim_time", 0.0))
        if base_sim >= MIN_BASELINE_SIM_TIME:
            ratio = fresh_sim / base_sim
            if ratio > 1.0 + threshold:
                failures.append(
                    f"{label}: sim_time regressed {ratio:.3f}x "
                    f"({base_sim:.1f} -> {fresh_sim:.1f}, "
                    f"threshold {1.0 + threshold:.2f}x)")
        if "pages_vs_solo" in base_row:
            base_ratio = float(base_row["pages_vs_solo"])
            fresh_ratio = float(fresh_row.get("pages_vs_solo", float("inf")))
            if fresh_ratio > base_ratio + FETCH_RATIO_SLACK:
                failures.append(
                    f"{label}: shared-scan fetch ratio regressed "
                    f"{base_ratio:.3f} -> {fresh_ratio:.3f}")
    for key in fresh.keys() - baseline.keys():
        notes.append(f"{name} {key}: new row without baseline (passes; "
                     "bless to start gating it)")
    return failures, notes


def check_parallel_smooth_bound(name, fresh_path):
    """Returns failures of the within-file parallel Smooth Scan bound."""
    pattern = PARALLEL_SMOOTH_SERIES.get(name)
    if pattern is None:
        return []
    with open(fresh_path) as f:
        rows = json.load(f).get("rows", [])
    serial = {(r.get("series"), round(float(r.get("sel_pct", 0.0)), 6)):
              float(r.get("sim_time", 0.0)) for r in rows}
    failures = []
    for row in rows:
        match = pattern.match(str(row.get("series")))
        if match is None:
            continue
        sel = round(float(row.get("sel_pct", 0.0)), 6)
        label = f"{name} {row['series']} sel_pct={sel}"
        serial_sim = serial.get((match.group(1), sel))
        if serial_sim is None:
            failures.append(f"{label}: no serial '{match.group(1)}' row "
                            "to bound it against")
            continue
        if serial_sim < MIN_BASELINE_SIM_TIME:
            continue
        ratio = float(row.get("sim_time", 0.0)) / serial_sim
        if ratio > PARALLEL_SMOOTH_MAX_RATIO:
            failures.append(
                f"{label}: {ratio:.3f}x the serial '{match.group(1)}' row "
                f"(bound {PARALLEL_SMOOTH_MAX_RATIO:.2f}x)")
    return failures


def check_wall_ratios(name, fresh_path):
    """Returns failures of the within-file wall bounds on FullScan's row."""
    if name != WALL_RATIO_BENCH:
        return []
    with open(fresh_path) as f:
        rows = json.load(f).get("rows", [])
    serial = {}
    for row in rows:
        if round(float(row.get("sel_pct", 0.0)), 6) != WALL_RATIO_SEL_PCT:
            continue
        if float(row.get("threads", 1)) != 1:
            continue
        serial[row.get("series")] = float(row.get("wall_ms", 0.0))
    label = f"{name} sel_pct={WALL_RATIO_SEL_PCT}"
    if serial.get("FullScan", 0.0) <= 0.0:
        return [f"{label}: no serial FullScan row with wall_ms for the "
                "wall-ratio bounds"]
    failures = []
    for series, bound in WALL_RATIO_BOUNDS.items():
        if series not in serial:
            failures.append(f"{label}: no serial {series} row for its "
                            "wall-ratio bound")
            continue
        ratio = serial[series] / serial["FullScan"]
        if ratio > bound:
            failures.append(
                f"{label}: serial {series} wall time is {ratio:.2f}x "
                f"FullScan's ({serial[series]:.1f} vs "
                f"{serial['FullScan']:.1f} ms; bound {bound:.1f}x)")
    return failures


def check_paper_figures(name, fresh_path):
    """Returns failures of the figure-shape gates on bench_paper_figures."""
    if name != PAPER_FIGURES_BENCH:
        return []
    with open(fresh_path) as f:
        rows = json.load(f).get("rows", [])
    by_series = {}
    for row in rows:
        by_series.setdefault(row.get("series"), []).append(row)
    failures = []

    fig08 = {}
    for series in ("FullScan", "IndexScan", "Smooth(Elastic)"):
        found = by_series.get(f"fig08 {series}")
        if not found:
            failures.append(f"{name}: no 'fig08 {series}' row for the "
                            "fig08 bound")
        else:
            fig08[series] = float(found[0].get("sim_time", 0.0))
    if len(fig08) == 3:
        best = min(fig08["FullScan"], fig08["IndexScan"])
        ratio = fig08["Smooth(Elastic)"] / best
        if ratio > FIG08_ELASTIC_MAX_RATIO:
            failures.append(
                f"{name} fig08: Smooth(Elastic) costs {ratio:.3f}x the "
                f"cheaper fixed path ({fig08['Smooth(Elastic)']:.1f} vs "
                f"{best:.1f}; bound {FIG08_ELASTIC_MAX_RATIO:.2f}x)")

    switch = sorted(by_series.get("fig11 SwitchScan", []),
                    key=lambda r: float(r.get("sel_pct", 0.0)))
    estimate = float(switch[0].get("estimate", -1)) if switch else -1
    below = [r for r in switch if float(r.get("tuples", 0)) <= estimate]
    above = [r for r in switch if float(r.get("tuples", 0)) > estimate]
    smooth = {round(float(r.get("sel_pct", 0.0)), 6):
              float(r.get("sim_time", 0.0))
              for r in by_series.get("fig11 SmoothScan", [])}
    if not below or not above:
        failures.append(f"{name}: no fig11 SwitchScan rows on both sides "
                        "of the optimizer estimate")
    else:
        lo, hi = below[-1], above[0]
        sels = [round(float(r.get("sel_pct", 0.0)), 6) for r in (lo, hi)]
        jump = float(hi["sim_time"]) / float(lo["sim_time"])
        if jump < FIG11_SWITCH_MIN_JUMP:
            failures.append(
                f"{name} fig11: SwitchScan rises only {jump:.2f}x across "
                f"the estimate (sel_pct {sels[0]} -> {sels[1]}; bound >= "
                f"{FIG11_SWITCH_MIN_JUMP:.1f}x)")
        if any(sel not in smooth for sel in sels):
            failures.append(f"{name}: no fig11 SmoothScan rows at sel_pct "
                            f"{sels[0]} and {sels[1]}")
        else:
            step = smooth[sels[1]] / smooth[sels[0]]
            if step > FIG11_SMOOTH_MAX_STEP:
                failures.append(
                    f"{name} fig11: SmoothScan rises {step:.2f}x across the "
                    f"estimate (sel_pct {sels[0]} -> {sels[1]}; bound "
                    f"{FIG11_SMOOTH_MAX_STEP:.1f}x)")

    batches = {}
    for row in rows:
        match = BATCH_SERIES.match(str(row.get("series")))
        if match is not None:
            key = (match.group(1), round(float(row.get("sel_pct", 0.0)), 6))
            batches.setdefault(key, []).append(float(row.get("sim_time", 0.0)))
    if not batches:
        failures.append(f"{name}: no batch-size ablation rows")
    for (path, sel), sims in sorted(batches.items()):
        if len(sims) < 2:
            failures.append(f"{name} batch ablation {path} sel_pct={sel}: "
                            "only one batch size")
        elif max(sims) - min(sims) > BATCH_SIM_REL_TOL * max(sims):
            failures.append(
                f"{name} batch ablation {path} sel_pct={sel}: sim_time "
                f"varies with batch size ({min(sims)!r} .. {max(sims)!r})")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory of freshly-run BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative sim_time regression tolerated")
    parser.add_argument("benches", nargs="*",
                        help="bench names (default: all fresh BENCH_*.json)")
    args = parser.parse_args(argv)

    benches = args.benches
    if not benches:
        benches = sorted(
            os.path.basename(p)[len("BENCH_"):-len(".json")]
            for p in glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json")))
        if not benches:
            error(f"no BENCH_*.json files in {args.fresh_dir}")
            return 1

    all_failures = []
    for name in benches:
        fresh_path = os.path.join(args.fresh_dir, f"BENCH_{name}.json")
        if not os.path.exists(fresh_path):
            all_failures.append(f"{name}: fresh run produced no {fresh_path}")
            continue
        failures, notes = check_bench(
            name, os.path.join(args.baseline_dir, f"BENCH_{name}.json"),
            fresh_path, args.threshold)
        failures += check_parallel_smooth_bound(name, fresh_path)
        failures += check_wall_ratios(name, fresh_path)
        failures += check_paper_figures(name, fresh_path)
        for note in notes:
            print(f"note: {note}")
        if failures:
            all_failures.extend(failures)
        else:
            print(f"ok: {name}")

    if all_failures:
        for failure in all_failures:
            error(failure)
        print(f"\nperf gate FAILED: {len(all_failures)} regression(s). "
              "If intentional, bless new baselines by copying the fresh "
              "BENCH_*.json over the repo-root copies in the same PR.")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
