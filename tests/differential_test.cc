// Randomized differential testing: for randomly drawn table shapes,
// predicates and Smooth Scan configurations, every access path must produce
// exactly the Full-Scan oracle's result multiset, and order-preserving
// variants must emit non-decreasing keys. This fuzz-style sweep is the broad
// safety net behind the targeted suites.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "common/rng.h"
#include "plan/access_path_chooser.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

struct Scenario {
  uint64_t num_tuples;
  int64_t value_max;
  size_t pool_pages;
  double selectivity;
  bool with_residual;
  uint64_t seed;
};

class DifferentialTest : public ::testing::TestWithParam<int> {};

Scenario DrawScenario(Rng* rng) {
  Scenario s;
  s.num_tuples = static_cast<uint64_t>(rng->UniformInt(100, 30000));
  s.value_max = rng->UniformInt(1, 5000);
  s.pool_pages = static_cast<size_t>(rng->UniformInt(8, 512));
  const double pick = rng->UniformDouble();
  // Mix point-ish, mid and full selectivities.
  if (pick < 0.3) {
    s.selectivity = rng->UniformDouble(0.0, 0.01);
  } else if (pick < 0.7) {
    s.selectivity = rng->UniformDouble(0.01, 0.3);
  } else {
    s.selectivity = rng->UniformDouble(0.3, 1.0);
  }
  s.with_residual = rng->Bernoulli(0.4);
  s.seed = rng->Next();
  return s;
}

TEST_P(DifferentialTest, AllPathsAgreeWithOracle) {
  Rng rng(0xd1ffe7 + static_cast<uint64_t>(GetParam()) * 7919);
  const Scenario s = DrawScenario(&rng);

  EngineOptions eo;
  eo.buffer_pool_pages = s.pool_pages;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = s.num_tuples;
  spec.value_max = s.value_max;
  spec.seed = s.seed;
  MicroBenchDb db(&engine, spec);
  db.index().CheckInvariants();

  ScanPredicate pred = db.PredicateForSelectivity(s.selectivity);
  const int64_t mod = 2 + rng.UniformInt(0, 5);
  if (s.with_residual) {
    pred.residual = [mod](const Tuple& t) {
      return t[2].AsInt64() % mod != 0;
    };
  }

  std::multiset<int64_t> oracle;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) oracle.insert(t[0].AsInt64());
  });

  auto check = [&](AccessPath* path, bool ordered, const char* label) {
    engine.ColdRestart();
    ASSERT_TRUE(path->Open().ok());
    std::multiset<int64_t> got;
    int64_t prev_key = INT64_MIN;
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const Tuple& t = batch.row(i);
        if (ordered) {
          const int64_t key = t[MicroBenchDb::kIndexedColumn].AsInt64();
          EXPECT_GE(key, prev_key) << label;
          prev_key = key;
        }
        got.insert(t[0].AsInt64());
      }
    }
    EXPECT_EQ(got, oracle) << label << " tuples=" << s.num_tuples
                           << " sel=" << s.selectivity
                           << " pool=" << s.pool_pages << " seed=" << s.seed;
  };

  FullScan full(&db.heap(), pred);
  check(&full, false, "FullScan");
  IndexScan index(&db.index(), pred);
  check(&index, true, "IndexScan");
  std::unique_ptr<AccessPath> sort =
      MakePath(PathKind::kSortScan, &db.index(), pred, /*need_order=*/true, 0);
  check(sort.get(), true, "SortScan");

  SwitchScanOptions sw;
  sw.estimated_cardinality = static_cast<uint64_t>(rng.UniformInt(0, 2000));
  SwitchScan switch_scan(&db.index(), pred, sw);
  check(&switch_scan, false, "SwitchScan");

  // A random Smooth Scan configuration.
  SmoothScanOptions so;
  so.policy = static_cast<MorphPolicy>(rng.UniformInt(0, 2));
  so.trigger = static_cast<MorphTrigger>(rng.UniformInt(0, 2));
  so.post_trigger_policy = static_cast<MorphPolicy>(rng.UniformInt(0, 2));
  so.optimizer_estimate = static_cast<uint64_t>(rng.UniformInt(0, 500));
  so.sla_trigger_cardinality = static_cast<uint64_t>(rng.UniformInt(0, 500));
  so.max_region_pages = static_cast<uint32_t>(rng.UniformInt(1, 4096));
  so.enable_flattening = rng.Bernoulli(0.9);
  so.preserve_order = rng.Bernoulli(0.5);
  if (so.preserve_order && rng.Bernoulli(0.5)) {
    so.result_cache_budget = static_cast<uint64_t>(rng.UniformInt(8, 4096));
  }
  SmoothScan smooth(&db.index(), pred, so);
  check(&smooth, so.preserve_order, "SmoothScan");

  // Robustness invariant: eager Smooth Scan never probes more heap pages
  // than the table holds.
  if (so.trigger == MorphTrigger::kEager) {
    EXPECT_LE(smooth.smooth_stats().pages_seen, db.heap().num_pages());
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, DifferentialTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace smoothscan
