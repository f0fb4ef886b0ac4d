// Figure 5: Smooth Scan vs. alternatives across the selectivity range, with
// (5a) and without (5b) an ORDER BY on the indexed column. Reproduces the
// paper's micro-benchmark query
//   SELECT * FROM relation WHERE c2 >= 0 AND c2 < X [ORDER BY c2];
// Expected shape: Index Scan degrades by orders of magnitude as selectivity
// grows; Sort Scan wins below ~1%; Smooth Scan tracks the best alternative
// everywhere and wins outright at high selectivity when order is required.

#include <cstdio>
#include <memory>
#include <thread>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/parallel_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "bench_util.h"
#include "exec/operators.h"
#include "workload/micro_bench.h"

using namespace smoothscan;
using bench::MeasureCold;
using bench::MeasureScan;
using bench::PrintSweepHeader;
using bench::PrintSweepRow;
using bench::RunMetrics;

namespace {

constexpr double kSelectivities[] = {0.0,  0.00001, 0.0001, 0.001, 0.01,
                                     0.05, 0.2,     0.5,    0.75,  1.0};

/// Full scan followed by a posterior sort (what a plan with ORDER BY pays).
RunMetrics MeasureFullScanWithSort(Engine* engine, const MicroBenchDb& db,
                                   const ScanPredicate& pred) {
  return MeasureCold(engine, [&]() -> uint64_t {
    auto scan = std::make_unique<ScanOp>(
        std::make_unique<FullScan>(&db.heap(), pred));
    SortOp sort(engine, std::move(scan), [](const Tuple& a, const Tuple& b) {
      return a[MicroBenchDb::kIndexedColumn].AsInt64() <
             b[MicroBenchDb::kIndexedColumn].AsInt64();
    });
    SMOOTHSCAN_CHECK(sort.Open().ok());
    return Drain(&sort, nullptr);
  });
}

void Sweep(Engine* engine, const MicroBenchDb& db, bool order_by) {
  PrintSweepHeader(order_by ? "Fig 5a: selectivity sweep WITH order by"
                            : "Fig 5b: selectivity sweep WITHOUT order by",
                   "micro-benchmark, HDD profile");
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    const double pct = sel * 100.0;

    // The ordered sweep's rows carry a distinct series suffix: the JSON
    // trajectory keys rows by (series, sel_pct, threads), and the two
    // sweeps would otherwise shadow each other in the CI perf gate.
    const char* ord = order_by ? " ordered" : "";
    char series[64];

    if (order_by) {
      PrintSweepRow(pct, "FullScan+Sort",
                    MeasureFullScanWithSort(engine, db, pred));
    } else {
      FullScan full(&db.heap(), pred);
      PrintSweepRow(pct, "FullScan", MeasureScan(engine, &full));
    }

    IndexScan index(&db.index(), pred);
    std::snprintf(series, sizeof(series), "IndexScan%s", ord);
    PrintSweepRow(pct, series, MeasureScan(engine, &index));

    SortScanOptions so;
    so.preserve_order = order_by;
    SortScan sort_scan(&db.index(), pred, so);
    std::snprintf(series, sizeof(series), "SortScan%s", ord);
    PrintSweepRow(pct, series, MeasureScan(engine, &sort_scan));

    SmoothScanOptions ss;
    ss.preserve_order = order_by;
    SmoothScan smooth(&db.index(), pred, ss);
    std::snprintf(series, sizeof(series), "SmoothScan%s", ord);
    PrintSweepRow(pct, series, MeasureScan(engine, &smooth));
  }
  std::printf("\n");
}

/// Morsel-driven parallel variants: wall-clock drops with workers while the
/// simulated cost and I/O-request counts stay bit-identical to DOP 1 (and,
/// for the page-range full scan, to the serial scan) — the differential test
/// enforces this; the bench shows the wall speedup the workers buy.
void ParallelSweep(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Fig 5c: morsel-driven parallel scans",
                   "sim cost DOP-invariant; wall speedup in series name");
  // Wall speedup is bounded by the physical cores of the host: on a
  // single-core box every DOP degenerates to ~1x (plus scheduling overhead),
  // while the simulated columns stay bit-identical everywhere.
  // Every scan runs on the engine's scheduler: one worker per hardware
  // thread, started by the first scan and shared by all the rest.
  std::printf("# host hardware threads: %u\n",
              std::thread::hardware_concurrency());
  constexpr uint32_t kDops[] = {1, 2, 4, 8};
  for (const double sel : {0.2, 1.0}) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    const double pct = sel * 100.0;
    double full_base_ms = 0.0;
    double smooth_base_ms = 0.0;
    for (const uint32_t dop : kDops) {
      ParallelScanOptions po;
      po.dop = dop;

      auto full = MakeParallelFullScan(&db.heap(), pred, FullScanOptions(), po);
      RunMetrics m = MeasureScan(engine, full.get());
      m.threads = dop;
      double full_ms = m.wall_ms;
      if (dop == 1) full_base_ms = m.wall_ms;
      char series[64];
      std::snprintf(series, sizeof(series), "ParFullScan dop=%u", dop);
      PrintSweepRow(pct, series, m);

      auto smooth =
          MakeParallelSmoothScan(&db.index(), pred, SmoothScanOptions(), po);
      m = MeasureScan(engine, smooth.get());
      m.threads = dop;
      if (dop == 1) smooth_base_ms = m.wall_ms;
      std::snprintf(series, sizeof(series), "ParSmoothScan dop=%u", dop);
      PrintSweepRow(pct, series, m);
      if (dop == kDops[std::size(kDops) - 1]) {
        std::printf("# sel %.1f%%: wall speedup at dop=%u — full scan %.2fx, "
                    "smooth scan %.2fx\n",
                    pct, dop, full_ms > 0 ? full_base_ms / full_ms : 0.0,
                    m.wall_ms > 0 ? smooth_base_ms / m.wall_ms : 0.0);
      }
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::OpenJson("fig05_selectivity");
  EngineOptions options;
  options.device = DeviceProfile::Hdd();
  options.buffer_pool_pages = 512;
  Engine engine(options);
  MicroBenchSpec spec;
  spec.num_tuples = 400000;
  MicroBenchDb db(&engine, spec);
  std::printf("# table: %llu tuples, %zu pages, index height %u\n\n",
              static_cast<unsigned long long>(db.heap().num_tuples()),
              db.heap().num_pages(), db.index().meta().height);
  Sweep(&engine, db, /*order_by=*/true);
  Sweep(&engine, db, /*order_by=*/false);
  ParallelSweep(&engine, db);
  bench::CloseJson();
  return 0;
}
