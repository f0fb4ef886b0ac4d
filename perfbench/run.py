#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload <micro_serial|tpch_parallel|wire_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_runner (the engine compiled
from src/ plus perfbench/runner/) into .bench_build/, runs one workload,
checks that every operation was correct (the runner counts failures; they
never abort the run) and prints each metric with its unit. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, measured with spans around each call into a layer, and writes the
spans as Chrome trace-event JSON to .bench_build/trace_<workload>.json.
A per-layer metric of a layer the workload bypasses reads 0.

Latencies are reported as a median and the highest percentile with at least
ten samples beyond it; rates and CPU per query as the median over the run's
throughput windows (balanced blocks of work, or seconds under concurrency);
set-up time as the median of several set-ups. The lines before the JSON give
each one's sample count. perfbench/README.md describes the workloads and
every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("micro_serial", "tpch_parallel", "wire_mixed")
RUNNER_TIMEOUT_S = 170

# Percentiles tried, highest first, when the requested one has fewer than
# MIN_BEYOND samples beyond it.
LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10

# End-to-end metrics (measured untraced): name -> (unit, source).
END_TO_END = {
    "setup_s": ("s", ("median", "setup_s")),
    "qps": ("1/s", ("median", "window.qps")),
    "read_p50_ms": ("ms", ("p50", "read_ms")),
    "read_tail_ms": ("ms", ("tail", "read_ms")),
    "rows_per_s": ("1/s", ("median", "window.rows_per_s")),
    "sim_cost_per_query": ("sim", ("value", "sim_cost_per_query")),
    "cpu_ms_per_query": ("ms", ("median", "window.cpu_ms_per_query")),
    "ok_frac": ("ratio", ("ok_frac", None)),
    "peak_rss_mb": ("MiB", ("value", "peak_rss_mb")),
}


def _per_layer():
    m = {}

    def add(name, unit, how, source=None):
        m[name] = (unit, (how, source if source is not None else name))

    add("net.overhead_ms_p50", "ms", "p50", "net.overhead_ms")
    add("net.overhead_ms_p99", "ms", "p99", "net.overhead_ms")
    add("net.threads_peak", "count", "value")
    add("net.window_stalls", "count", "value")
    add("plan.parse_bind_us_p50", "us", "p50", "plan.parse_bind")
    add("plan.choose_us_p50", "us", "p50", "plan.choose")
    add("plan.qerror_p50", "ratio", "p50", "plan.qerror")
    add("plan.qerror_p99", "ratio", "p99", "plan.qerror")
    for kind in ("full", "index", "sort", "switch", "smooth", "shared",
                 "compressed"):
        add("plan.path." + kind, "count", "value")
    add("engine.queue_wait_ms_p50", "ms", "p50", "engine.queue_wait_ms")
    add("engine.queue_wait_ms_p99", "ms", "p99", "engine.queue_wait_ms")
    add("engine.admitted_peak", "count", "value")
    add("engine.exec_ms_p50", "ms", "p50", "engine.exec_ms")
    add("engine.exec_ms_p99", "ms", "p99", "engine.exec_ms")
    for kind in ("full", "index", "sort", "switch", "smooth"):
        add("access.%s.open_us" % kind, "us", "value")
        add("access.%s.drain_ns_per_row" % kind, "ns/row", "value")
        add("access.%s.wall_over_sim" % kind, "us/sim", "value")
        add("access.%s.useful_frac" % kind, "ratio", "value")
        add("access.%s.pages_per_row" % kind, "pages/row", "value")
    add("access.smooth.region_grows", "count/query", "value")
    add("access.smooth.page_cache_hits", "count/query", "value")
    add("access.regret_p99", "ratio", "p99", "access.regret")
    add("access.parallel.dop1_over_serial", "ratio", "value")
    add("access.parallel.speedup_dop2", "ratio", "value")
    for kind in ("full", "smooth"):
        add("access.parallel.%s.dop1_over_serial" % kind, "ratio", "value")
        add("access.parallel.%s.speedup_dop2" % kind, "ratio", "value")
    for q in (1, 4, 6, 7, 12, 14, 19):
        add("exec.q%d.wall_ms" % q, "ms", "value")
        add("exec.q%d.leaf_frac" % q, "ratio", "value")
    add("exec.threads_peak", "count", "value")
    add("storage.pages_read_per_query", "pages", "value")
    add("storage.random_io_frac", "ratio", "value")
    add("storage.bufferpool_hit_rate", "ratio", "value")
    add("storage.io_frac_of_sim", "ratio", "value")
    add("mem.batchpool_reuse_frac", "ratio", "value")
    add("mem.broker_peak_mb", "MiB", "value")
    add("sharing.consumers_per_group", "count", "value")
    add("sharing.pages_per_consumer", "pages", "value")
    add("write.exec_ms_p50", "ms", "p50", "write.exec_ms")
    add("write.exec_ms_p99", "ms", "p99", "write.exec_ms")
    add("write.latency_ms_p50", "ms", "p50", "write.latency_ms")
    add("write.latency_ms_p99", "ms", "p99", "write.latency_ms")
    add("write.ops_applied_frac", "ratio", "value")
    add("write.publishes", "count", "value")
    add("bench.trace_overhead_frac", "ratio", "value")
    return m


PER_LAYER = _per_layer()


def nearest_rank(values, q):
    """Nearest-rank q-percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n, q):
    """Samples that lie beyond the nearest-rank q-percentile of n samples."""
    return n - math.ceil(q * n)


def tail(values, q):
    """(value, percentile used, sample count) for the q-percentile, or for the
    highest percentile of LADDER below q that keeps MIN_BEYOND samples beyond
    it. With too few samples for any, the median (percentile 0.5)."""
    n = len(values)
    for p in (q,) + tuple(x for x in LADDER if x < q):
        if beyond(n, p) >= MIN_BEYOND:
            return nearest_rank(values, p), p, n
    return nearest_rank(values, 0.5), 0.5, n


def ok_frac(attempted, failed):
    """Share of attempted operations that succeeded with a correct result
    (1 - error_rate; the denominator is every attempted operation)."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    return (attempted - failed) / attempted


def compute_metrics(raw, table):
    """Metric name -> (value, unit, note) from the runner's raw report."""
    values = raw.get("values", {})
    samples = raw.get("samples", {})
    out = {}
    for name, (unit, (how, source)) in table.items():
        note = ""
        if how == "value":
            value = values.get(source, 0.0)
        elif how == "ok_frac":
            value = ok_frac(raw["attempted"], raw["failed"])
            note = "%d of %d operations correct" % (
                raw["attempted"] - raw["failed"], raw["attempted"])
        else:
            series = samples.get(source, [])
            if not series:
                value, note = 0.0, "no samples (layer not exercised)"
            elif how in ("p50", "median"):
                value = nearest_rank(series, 0.5)
                note = "%s of %d %s" % (
                    "p50" if how == "p50" else "median",
                    len(series),
                    "windows" if source.startswith("window.") else "samples")
            else:
                want = 0.99 if how == "p99" else values.get("tail_q", 0.99)
                value, used, n = tail(series, want)
                note = "p%g of %d samples" % (used * 100, n)
                if used != want:
                    note += " (p%g has fewer than %d beyond)" % (
                        want * 100, MIN_BEYOND)
        out[name] = (float(value), unit, note)
    return out


def format_result(raw, metrics):
    """The benchmark's last output line."""
    correct = raw["failed"] == 0 and all(
        math.isfinite(v) for v, _, _ in metrics.values())
    return json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit, _) in metrics.items()},
    })


def build():
    """Configures and builds the runner (both no-ops when up to date); build
    output goes to stderr only on failure. Returns False on failure."""
    if not os.path.isdir(os.path.join("src", "engine")) or not os.path.isfile(
            os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: run from the repository root (src/ and perfbench/ "
              "are needed to build the engine)", file=sys.stderr)
        return False
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
              "perfbench_runner"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not build():
        return 1
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace_%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: runner timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: runner exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    for error in raw.get("errors", []):
        print("run.py: failed operation: " + error, file=sys.stderr)
    metrics = compute_metrics(raw, PER_LAYER if args.trace else END_TO_END)
    for name, (value, unit, note) in metrics.items():
        print("# %-40s %16.6g %-12s %s" % (name, value, unit, note))
    print(format_result(raw, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
