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

#include "bench_util.h"
#include "plan/access_path_chooser.h"
#include "workload/micro_bench.h"

using namespace smoothscan;
using bench::MeasureScan;
using bench::PrintSweepHeader;
using bench::PrintSweepRow;
using bench::RunMetrics;

namespace {

constexpr double kSelectivities[] = {0.0,  0.00001, 0.0001, 0.001, 0.01,
                                     0.05, 0.2,     0.5,    0.75,  1.0};

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

    // MakePath adds the posterior sort to Full and Sort Scan when the query
    // needs the order (the FullScan row is named for it).
    const struct {
      PathKind kind;
      const char* name;
    } paths[] = {{PathKind::kFullScan, order_by ? "FullScan+Sort" : "FullScan"},
                 {PathKind::kIndexScan, "IndexScan"},
                 {PathKind::kSortScan, "SortScan"},
                 {PathKind::kSmoothScan, "SmoothScan"}};
    for (const auto& [kind, name] : paths) {
      std::unique_ptr<AccessPath> path =
          MakePath(kind, &db.index(), pred, order_by, /*estimate=*/0);
      std::snprintf(series, sizeof(series), "%s%s", name,
                    kind == PathKind::kFullScan ? "" : ord);
      PrintSweepRow(pct, series, MeasureScan(engine, path.get()));
    }
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
