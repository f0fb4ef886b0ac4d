// SLA-driven morphing (Sections III-C and V). An operator is given an upper
// execution-time bound (here: twice a full scan). The cost model derives the
// largest cardinality the plain index scan may produce before morphing must
// begin so that even a worst-case (100% selectivity) remainder stays within
// the bound; Smooth Scan then runs with that trigger. The example sweeps
// selectivity and verifies the bound is honoured everywhere.
//
//   $ ./build/examples/sla_scan

#include <cstdio>

#include "access/smooth_scan.h"
#include "cost/cost_model.h"
#include "workload/micro_bench.h"

using namespace smoothscan;

int main() {
  EngineOptions options;
  options.buffer_pool_pages = 512;
  Engine engine(options);
  MicroBenchSpec spec;
  spec.num_tuples = 200000;
  MicroBenchDb db(&engine, spec);

  CostModelParams params;
  params.num_tuples = db.heap().num_tuples();
  params.tuple_size = static_cast<uint64_t>(
      8192 / (db.heap().num_tuples() / db.heap().num_pages()));
  const CostModel model(params);

  const double sla = 2.0 * model.FullScanCost();
  const uint64_t trigger = model.SlaTriggerCardinality(sla);
  std::printf("full scan cost %.0f, SLA bound %.0f (2 full scans)\n",
              model.FullScanCost(), sla);
  std::printf("cost-model trigger: morph after %llu index-produced tuples\n\n",
              static_cast<unsigned long long>(trigger));

  std::printf("%-10s %14s %14s %10s\n", "sel(%)", "exec time", "SLA bound",
              "ok?");
  bool all_ok = true;
  for (const double sel : {0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0}) {
    SmoothScanOptions so;
    so.trigger = MorphTrigger::kSlaDriven;
    so.sla_trigger_cardinality = trigger;
    so.post_trigger_policy = MorphPolicy::kGreedy;  // Converge fast.
    SmoothScan scan(&db.index(), db.PredicateForSelectivity(sel), so);

    engine.ColdRestart();
    const IoStats before = engine.disk().stats();
    const double cpu_before = engine.cpu().time();
    SMOOTHSCAN_CHECK(scan.Open().ok());
    TupleBatch batch;
    while (scan.NextBatch(&batch)) {
    }
    const double time = (engine.disk().stats() - before).io_time +
                        engine.cpu().time() - cpu_before;
    // The analytic bound covers I/O; allow the simulated CPU on top.
    const bool ok = time <= sla * 1.25;
    all_ok = all_ok && ok;
    std::printf("%-10.4f %14.1f %14.1f %10s\n", sel * 100.0, time, sla,
                ok ? "yes" : "VIOLATED");
  }
  std::printf("\n%s\n", all_ok ? "SLA respected across the entire "
                                 "selectivity range, statistics-free."
                               : "SLA violated somewhere — investigate!");
  return all_ok ? 0 : 1;
}
