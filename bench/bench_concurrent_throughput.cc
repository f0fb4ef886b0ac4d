// Concurrent multi-query throughput: the paper's robustness experiment at
// workload level. A closed loop of N clients replays a three-phase drifting
// query stream (shifting selectivities, optimizer statistics lying by up to
// 1000x) through the QueryEngine, sweeping clients x intra-query DOP x
// access-path policy. The statistics-trusting optimizer falls into the
// index-scan trap in the drifted phases and its tail latency explodes; the
// statistics-oblivious Smooth Scan policy holds throughput and p99 across
// every phase — no cliff, which is the whole point.
//
// Emits BENCH_concurrent.json: one row per (policy, dop, clients) cell with
// throughput (qps), latency percentiles, the summed per-query simulated
// cost, and the cell's registry snapshot (buffer-pool misses, batch reuse,
// morph activity, queue-wait tail) — the observability plane riding the same
// rows the perf gate diffs. The simulated columns are schedule-independent
// (per-query private accounting stacks), so they diff cleanly across PRs;
// qps and percentiles are wall-clock and scale with the host's cores.
// batchpool_reuses depends on how the engine scheduler's workers interleaved
// the queries' morsels, so each committed value is one scheduling's sample:
// the CI perf gate does not compare it.
//
// Trace mode: with SMOOTHSCAN_TRACE_FILE=<path> in the environment the bench
// skips the sweep and runs ONE traced cell — 8 clients, DOP 2, the Smooth
// Scan policy over the drifting (mis-estimated) stream — exporting the
// Chrome trace-event JSON to <path> for scripts/check_trace.py. No BENCH
// JSON is written in this mode.

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/workload_driver.h"

using namespace smoothscan;

namespace {

constexpr uint32_t kClientCounts[] = {1, 2, 4, 8};
constexpr uint32_t kDops[] = {0, 2};
constexpr DriverPolicy kPolicies[] = {
    DriverPolicy::kOptimizer, DriverPolicy::kSmoothScan,
    DriverPolicy::kFullScan};

void RunCell(Engine* engine, const MicroBenchDb& db, DriverPolicy policy,
             uint32_t dop, uint32_t clients, obs::TraceCollector* tracing,
             bool record_json) {
  // Per-cell registry so every row's snapshot covers exactly its own run.
  obs::MetricsRegistry registry;
  QueryEngineOptions qeo;
  // Admission tracks the client count up to the host-independent cap the
  // sweep fixes, so queue wait appears in the oversubscribed cells.
  qeo.max_admitted = std::min<uint32_t>(clients, 4);
  qeo.metrics = &registry;
  qeo.tracing = tracing;
  QueryEngine qe(engine, qeo);
  WorkloadDriver driver(engine, &db, &qe);

  WorkloadOptions wo;
  wo.clients = clients;
  wo.dop = dop;
  wo.policy = policy;
  wo.phases = WorkloadOptions::DriftingPhases(/*queries_per_phase=*/3);
  wo.metrics = &registry;
  const WorkloadReport report = driver.Run(wo);

  // Full simulated breakdown, summed over every query's private stack, so
  // the JSON rows keep the sim_time == io_time + cpu_time invariant every
  // other bench's rows satisfy.
  bench::RunMetrics m;
  m.tuples = report.tuples;
  m.wall_ms = report.wall_ms;
  m.threads = clients;
  for (const QueryMetrics& q : report.per_query) {
    m.io_time += q.io_time;
    m.cpu_time += q.cpu_time;
    m.io_requests += q.io_requests;
    m.random_ios += q.random_ios;
    m.seq_ios += q.seq_ios;
    m.pages_read += q.pages_read;
  }
  m.total_time = m.io_time + m.cpu_time;
  char series[64];
  std::snprintf(series, sizeof(series), "%s dop=%u",
                DriverPolicyToString(policy), dop);
  std::printf(
      "%-18s clients=%u  qps=%7.2f  p50=%8.2fms  p99=%8.2fms  queue=%7.2fms  "
      "sim=%12.1f  paths[full/idx/sort/switch/smooth/shared]="
      "%llu/%llu/%llu/%llu/%llu/%llu\n",
      series, clients, report.qps, report.p50_latency_ms,
      report.p99_latency_ms, report.mean_queue_ms, report.total_sim_time,
      static_cast<unsigned long long>(report.path_counts[0]),
      static_cast<unsigned long long>(report.path_counts[1]),
      static_cast<unsigned long long>(report.path_counts[2]),
      static_cast<unsigned long long>(report.path_counts[3]),
      static_cast<unsigned long long>(report.path_counts[4]),
      static_cast<unsigned long long>(report.path_counts[5]));
  if (!record_json) return;
  // The cell's final registry snapshot rides the row. The perf gate only
  // reads the standard simulated columns, so these are pure addenda.
  const obs::MetricsSnapshot& snap = report.metrics;
  bench::RecordRowExtra(
      series, /*x=*/static_cast<double>(clients), m,
      {{"clients", static_cast<double>(clients)},
       {"qps", report.qps},
       {"p50_ms", report.p50_latency_ms},
       {"p95_ms", report.p95_latency_ms},
       {"p99_ms", report.p99_latency_ms},
       {"mean_queue_ms", report.mean_queue_ms},
       {"mean_latency_ms", report.mean_latency_ms},
       {"bufferpool_hits", snap.Value("bufferpool.hits")},
       {"bufferpool_misses", snap.Value("bufferpool.misses")},
       {"batchpool_reuses", snap.Value("batchpool.reuses")},
       {"smooth_region_grows", snap.Value("smooth.region_grows")},
       {"smooth_page_cache_hits", snap.Value("smooth.page_cache_hits")},
       {"rc_spills", snap.Value("rc.spills")},
       {"queue_wait_us_p95", snap.Value("engine.queue_wait_us.p95")}});
}

/// SMOOTHSCAN_TRACE_FILE mode: one traced mixed cell, exported for the CI
/// trace gate. Returns the process exit code.
int RunTraced(Engine* engine, const MicroBenchDb& db, const char* path) {
  std::printf("# trace mode: 8 clients, dop=2, smooth policy -> %s\n\n", path);
  obs::TraceCollector collector;
  RunCell(engine, db, DriverPolicy::kSmoothScan, /*dop=*/2, /*clients=*/8,
          &collector, /*record_json=*/false);
  if (!collector.ExportJsonFile(path)) {
    std::fprintf(stderr, "trace export to %s failed\n", path);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  EngineOptions options;
  options.device = DeviceProfile::Hdd();
  options.buffer_pool_pages = 512;
  Engine engine(options);
  MicroBenchSpec spec;
  spec.num_tuples = 120000;
  MicroBenchDb db(&engine, spec);

  std::printf("# concurrent multi-query throughput — %llu tuples, %zu pages, "
              "host hardware threads: %u\n",
              static_cast<unsigned long long>(db.heap().num_tuples()),
              db.heap().num_pages(), std::thread::hardware_concurrency());
  std::printf("# drifting 3-phase stream, 3 queries/phase/client; optimizer "
              "stats lie up to 1000x in phases 2-3\n\n");

  if (const char* trace_path = std::getenv("SMOOTHSCAN_TRACE_FILE")) {
    return RunTraced(&engine, db, trace_path);
  }

  bench::OpenJson("concurrent");
  for (const DriverPolicy policy : kPolicies) {
    for (const uint32_t dop : kDops) {
      for (const uint32_t clients : kClientCounts) {
        RunCell(&engine, db, policy, dop, clients, /*tracing=*/nullptr,
                /*record_json=*/true);
      }
      std::printf("\n");
    }
  }
  bench::CloseJson();
  return 0;
}
