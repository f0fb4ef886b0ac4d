// Two-way morphing on skewed data (Section VI-D). The table has a dense head
// region where every tuple matches, then a sparse tail of scattered matches.
// The Elastic policy expands the morphing region through the dense head and
// shrinks it back in the sparse tail; the Selectivity-Increase policy never
// shrinks and keeps dragging huge regions across the table. This example
// traces the morphing-region size as each scan progresses.
//
//   $ ./build/examples/skew_adaptive

#include <cstdio>
#include <vector>

#include "access/smooth_scan.h"
#include "workload/micro_bench.h"

using namespace smoothscan;

namespace {

void TraceRun(Engine* engine, const MicroBenchDb& db, MorphPolicy policy) {
  SmoothScanOptions options;
  options.policy = policy;
  SmoothScan scan(&db.index(), db.ZeroKeyPredicate(), options);

  engine->ColdRestart();
  const IoStats before = engine->disk().stats();
  SMOOTHSCAN_CHECK(scan.Open().ok());

  // Sample the region size every 256 produced tuples.
  std::vector<uint32_t> trace;
  uint64_t produced = 0;
  TupleBatch batch;
  while (scan.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (produced % 256 == 0) trace.push_back(scan.current_region_pages());
      ++produced;
    }
  }
  const IoStats d = engine->disk().stats() - before;

  std::printf("\npolicy %s: %llu tuples, %llu pages probed, io time %.0f\n",
              MorphPolicyToString(policy),
              static_cast<unsigned long long>(produced),
              static_cast<unsigned long long>(scan.smooth_stats().pages_seen),
              d.io_time);
  std::printf("region-size trace (1 sample / 256 tuples): ");
  for (const uint32_t r : trace) std::printf("%u ", r);
  std::printf("\nexpansions=%llu shrinks=%llu\n",
              static_cast<unsigned long long>(scan.smooth_stats().expansions),
              static_cast<unsigned long long>(scan.smooth_stats().shrinks));
}

}  // namespace

int main() {
  EngineOptions options;
  options.buffer_pool_pages = 512;
  Engine engine(options);

  SkewedBenchSpec spec;
  spec.num_tuples = 200000;
  spec.dense_prefix = 2000;        // 1% dense head.
  spec.extra_match_fraction = 5e-4;
  MicroBenchDb db(&engine, spec);
  std::printf("skewed table: %llu tuples, %zu pages; query selects c2 = 0\n",
              static_cast<unsigned long long>(db.heap().num_tuples()),
              db.heap().num_pages());

  TraceRun(&engine, db, MorphPolicy::kElastic);
  TraceRun(&engine, db, MorphPolicy::kSelectivityIncrease);

  std::printf(
      "\nElastic's trace rises through the dense head and collapses back to\n"
      "single-page probes in the sparse tail; SI's never comes back down.\n");
  return 0;
}
