#!/usr/bin/env python3
"""A/B comparison of two checkouts on one perfbench workload.

    python3 scripts/perfbench_ab.py --parent <dir> --change <dir>
        --workload <micro_serial|tpch_parallel|wire_mixed>
        --seed <n> --pairs <p> --seconds <s>

Runs `python3 perfbench/run.py` (untraced) in each checkout, `--pairs` times
per side, in alternating order: pair 1 runs parent then change, pair 2 change
then parent, and so on, so slow drift of a shared host lands on both sides.
Prints every end-to-end metric as median [q1, q3] per side, the
change/parent ratio of the medians, and in how many pairs the change was
better (direction from the change checkout's BENCHMARK.json). Exits non-zero
if any run fails or reports `failed > 0`.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True


def quantile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_run(stdout):
    """The perfbench result: the JSON object on stdout's last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if "metrics" not in result or "failed" not in result:
        raise ValueError("not a perfbench result line: " + lines[-1])
    return result


def run_perfbench(checkout, workload, seed, seconds):
    """Runs one untraced perfbench pass in `checkout`; returns its result."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d in %s"
                           % (proc.returncode, checkout))
    return parse_run(proc.stdout)


def directions(checkout):
    """Metric name -> "higher"/"lower" from BENCHMARK.json ({} if absent)."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def summarize(parent_runs, change_runs, better):
    """One row per metric present in every run: (name, unit, parent
    (median, q1, q3), change (median, q1, q3), ratio, wins) where wins counts
    the pairs in which the change was strictly better (None without a
    direction)."""
    runs = parent_runs + change_runs
    names = [n for n in parent_runs[0]["metrics"]
             if all(n in r["metrics"] for r in runs)]
    rows = []
    for name in names:
        side = []
        for group in (parent_runs, change_runs):
            values = [r["metrics"][name]["value"] for r in group]
            side.append((quantile(values, 0.5), quantile(values, 0.25),
                         quantile(values, 0.75)))
        p_med, c_med = side[0][0], side[1][0]
        if p_med != 0:
            ratio = c_med / p_med
        else:
            ratio = 1.0 if c_med == 0 else float("inf")
        wins = None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(1 for p, c in zip(parent_runs, change_runs)
                       if sign * (c["metrics"][name]["value"] -
                                  p["metrics"][name]["value"]) > 0)
        rows.append((name, parent_runs[0]["metrics"][name]["unit"], side[0],
                     side[1], ratio, wins))
    return rows


def format_rows(rows, pairs):
    def cell(stats):
        return "%.6g [%.6g, %.6g]" % stats

    out = ["%-20s %-6s %-40s %-40s %8s %6s"
           % ("metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "ratio", "wins")]
    for name, unit, parent, change, ratio, wins in rows:
        out.append("%-20s %-6s %-40s %-40s %8.4f %6s"
                   % (name, unit, cell(parent), cell(change), ratio,
                      "-" if wins is None else "%d/%d" % (wins, pairs)))
    return out


def main(argv, runner=run_perfbench):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"parent": [], "change": []}
    dirs = {"parent": args.parent, "change": args.change}
    failed = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                            "parent")
        for side in order:
            try:
                result = runner(dirs[side], args.workload, args.seed,
                                args.seconds)
            except (RuntimeError, ValueError) as e:
                print("perfbench_ab: %s run %d: %s" % (side, pair + 1, e),
                      file=sys.stderr)
                return 1
            if result["failed"] > 0:
                failed += 1
                print("perfbench_ab: %s run %d: %d of %d operations failed"
                      % (side, pair + 1, result["failed"],
                         result["attempted"]), file=sys.stderr)
            runs[side].append(result)
            print("# pair %d %-6s %s" % (pair + 1, side, json.dumps(
                {n: m["value"] for n, m in result["metrics"].items()})))
    print("%s seed %d, %d pairs of %g s runs"
          % (args.workload, args.seed, args.pairs, args.seconds))
    for line in format_rows(summarize(runs["parent"], runs["change"],
                                      directions(args.change)), args.pairs):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
