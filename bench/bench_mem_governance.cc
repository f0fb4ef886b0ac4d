// Memory-governance bench: what the batch pool buys and what the unified
// broker costs.
//
// Part 1 (series "pooled dop=N"): repeated parallel full scans at DOP 1/2/8,
// drawing recycled batches from the engine's batch pool. Reported per cell:
// simulated cost (must be BIT-IDENTICAL across every cycle, cold or warm —
// the bench aborts if recycling changes any simulated counter), wall
// milliseconds, real heap allocations per emitted batch measured with a
// counting global allocator, and the engine pool's cold acquires and sheds
// over the cell. Steady state must hold allocations/batch near zero; a cold
// batch pays ~a Tuple vector per row. allocs_per_batch and cold_acquires
// depend on how the workers' morsels interleaved with the consumer, so each
// committed value is one scheduling's sample: the CI perf gate does not
// compare these columns, only the simulated ones.
//
// Part 2 (series "governed ..."): the closed-loop workload under the broker
// — clients x per-query quota sweep at a global budget that keeps the broker
// oscillating around pressure. Quota breaches shed storage; throughput and
// summed simulated cost must hold across every quota (governance never
// fails or re-costs a query).
//
// Emits BENCH_mem.json.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "access/parallel_scan.h"
#include "bench_util.h"
#include "engine/query_engine.h"
#include "workload/workload_driver.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a new/delete
// mismatch; the pairing here is malloc/free on both sides (false positive).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace smoothscan;

namespace {

constexpr uint32_t kDops[] = {1, 2, 8};
constexpr int kCycles = 5;  // Cycle 1 warms the pool; 2..5 are steady state.

struct CellResult {
  bench::RunMetrics m;
  double allocs_per_batch = 0.0;
  uint64_t batches = 0;
  uint64_t cold_acquires = 0;
  uint64_t sheds = 0;
};

CellResult RunScanCell(Engine* engine, const MicroBenchDb& db,
                       uint32_t dop) {
  ParallelScanOptions po;
  po.dop = dop;
  po.morsel_pages = 64;
  const ScanPredicate pred = db.PredicateForSelectivity(0.5);
  auto scan =
      MakeParallelFullScan(&db.heap(), pred, FullScanOptions(), po);
  const BatchPoolStats base = engine->batch_pool().stats();

  CellResult cell;
  uint64_t allocs = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const bool measured = cycle > 0;
    // Zero the meters so the per-cycle diffs are bit-comparable (a growing
    // float accumulator loses low bits under subtraction).
    engine->ColdRestart();
    engine->disk().ResetAll();
    engine->cpu().Reset();
    const uint64_t allocs_before = g_heap_allocs.load();
    const bench::RunMetrics m = bench::MeasureCold(engine, [&] {
      uint64_t tuples = 0;
      if (!scan->Open().ok()) std::abort();
      TupleBatch batch;
      while (scan->NextBatch(&batch)) {
        tuples += batch.size();
        if (measured) ++cell.batches;
      }
      scan->Close();
      return tuples;
    });
    if (!measured) {
      // Warm-up cycle: record the simulated cost once; every later cycle
      // must reproduce it exactly (cold runs of one deterministic scan).
      cell.m = m;
      cell.m.wall_ms = 0.0;
      cell.m.threads = dop;
      continue;
    }
    allocs += g_heap_allocs.load() - allocs_before;
    cell.m.wall_ms += m.wall_ms;
    if (m.io_time != cell.m.io_time || m.cpu_time != cell.m.cpu_time ||
        m.io_requests != cell.m.io_requests ||
        m.pages_read != cell.m.pages_read || m.tuples != cell.m.tuples) {
      std::fprintf(stderr,
                   "FATAL: simulated cost drifted across cycles "
                   "(dop=%u cycle=%d)\n",
                   dop, cycle);
      std::exit(1);
    }
  }
  cell.allocs_per_batch =
      cell.batches > 0 ? static_cast<double>(allocs) / cell.batches : 0.0;
  const BatchPoolStats s = engine->batch_pool().stats();
  cell.cold_acquires = s.cold_acquires() - base.cold_acquires();
  cell.sheds = s.sheds - base.sheds;
  return cell;
}

void RunGovernedCell(Engine* engine, const MicroBenchDb& db, uint32_t clients,
                     uint64_t quota_bytes, const char* quota_label) {
  // Budget a hair above the engine's buffer-pool frame charge: warm exec
  // batches push the broker in and out of pressure the whole run.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes =
      uint64_t{engine->options().buffer_pool_pages} *
          engine->options().page_size +
      64 * 1024;
  MemoryBroker broker(bo);

  QueryEngineOptions qeo;
  qeo.max_admitted = std::min<uint32_t>(clients, 4);
  qeo.broker = &broker;
  qeo.query_quota_bytes = quota_bytes;
  QueryEngine qe(engine, qeo);
  WorkloadDriver driver(engine, &db, &qe);

  WorkloadOptions wo;
  wo.clients = clients;
  wo.dop = 2;
  wo.policy = DriverPolicy::kSmoothScan;
  wo.phases = WorkloadOptions::DriftingPhases(/*queries_per_phase=*/3);
  const WorkloadReport report = driver.Run(wo);

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
  std::snprintf(series, sizeof(series), "governed quota=%s", quota_label);
  std::printf("%-24s clients=%u  qps=%7.2f  sim=%12.1f  breaches=%6llu  "
              "peak=%9llu  epochs=%llu\n",
              series, clients, report.qps, report.total_sim_time,
              static_cast<unsigned long long>(report.mem_quota_breaches),
              static_cast<unsigned long long>(report.mem_peak_bytes),
              static_cast<unsigned long long>(broker.pressure_epoch()));
  bench::RecordRowExtra(
      series, /*x=*/static_cast<double>(clients), m,
      {{"clients", static_cast<double>(clients)},
       {"qps", report.qps},
       {"quota_breaches", static_cast<double>(report.mem_quota_breaches)},
       {"mem_peak_bytes", static_cast<double>(report.mem_peak_bytes)},
       {"pressure_epochs", static_cast<double>(broker.pressure_epoch())},
       {"p99_ms", report.p99_latency_ms}});
}

}  // namespace

int main() {
  bench::OpenJson("mem");
  EngineOptions options;
  options.device = DeviceProfile::Hdd();
  options.buffer_pool_pages = 512;
  Engine engine(options);
  MicroBenchSpec spec;
  spec.num_tuples = 60000;
  MicroBenchDb db(&engine, spec);

  std::printf("# memory governance — %llu tuples, %zu pages\n",
              static_cast<unsigned long long>(db.heap().num_tuples()),
              db.heap().num_pages());
  std::printf("# part 1: engine batch pool, sel=50%%, %d steady cycles, "
              "sim cost must match the cold cycle bit for bit\n\n",
              kCycles - 1);

  for (const uint32_t dop : kDops) {
    const CellResult cell = RunScanCell(&engine, db, dop);
    char series[32];
    std::snprintf(series, sizeof(series), "pooled dop=%u", dop);
    std::printf("%-16s sim=%10.1f  wall=%8.2fms  allocs/batch=%8.2f  "
                "batches=%5llu  cold_acquires=%4llu  sheds=%5llu\n",
                series, cell.m.total_time, cell.m.wall_ms,
                cell.allocs_per_batch,
                static_cast<unsigned long long>(cell.batches),
                static_cast<unsigned long long>(cell.cold_acquires),
                static_cast<unsigned long long>(cell.sheds));
    bench::RecordRowExtra(
        series, /*x=*/static_cast<double>(dop), cell.m,
        {{"dop", static_cast<double>(dop)},
         {"allocs_per_batch", cell.allocs_per_batch},
         {"batches", static_cast<double>(cell.batches)},
         {"cold_acquires", static_cast<double>(cell.cold_acquires)},
         {"sheds", static_cast<double>(cell.sheds)}});
  }
  std::printf("\n");

  std::printf("# part 2: governed closed-loop workload, 3-phase drift, "
              "dop=2, Smooth Scan policy\n\n");
  struct QuotaPoint {
    uint64_t bytes;
    const char* label;
  };
  const QuotaPoint quotas[] = {{UINT64_MAX, "none"},
                               {256 * 1024, "256K"},
                               {4 * 1024, "4K"}};
  for (const QuotaPoint& q : quotas) {
    for (const uint32_t clients : {1u, 2u, 4u, 8u}) {
      RunGovernedCell(&engine, db, clients, q.bytes, q.label);
    }
    std::printf("\n");
  }
  bench::CloseJson();
  return 0;
}
