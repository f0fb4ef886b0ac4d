// Smooth Scan tests: result equivalence across the full configuration space
// (policy x trigger x ordering x selectivity), ordering preservation, the
// worst-case page-access bound, smoothness (no performance cliffs), policy
// dynamics (expansion/shrinking, skew adaptation) and the auxiliary
// structures (Page ID / Tuple ID / Result caches).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

constexpr int kC2 = MicroBenchDb::kIndexedColumn;

class SmoothScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EngineOptions options;
    // Pool far smaller than the table so repeated accesses actually cost
    // I/O, as in the paper's cold-cache setup.
    options.buffer_pool_pages = 64;
    engine_ = new Engine(options);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    db_ = new MicroBenchDb(engine_, spec);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete engine_;
    db_ = nullptr;
    engine_ = nullptr;
  }

  static std::multiset<int64_t> Oracle(const ScanPredicate& pred) {
    std::multiset<int64_t> ids;
    db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (pred.Matches(t)) ids.insert(t[0].AsInt64());
    });
    return ids;
  }

  static std::multiset<int64_t> Collect(AccessPath* path) {
    engine_->ColdRestart();
    SMOOTHSCAN_CHECK(path->Open().ok());
    std::multiset<int64_t> ids;
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const Tuple& t = batch.row(i);
        ids.insert(t[0].AsInt64());
      }
    }
    path->Close();
    return ids;
  }

  static double MeasureIoTime(AccessPath* path) {
    engine_->ColdRestart();
    const IoStats before = engine_->disk().stats();
    SMOOTHSCAN_CHECK(path->Open().ok());
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
    }
    path->Close();
    return (engine_->disk().stats() - before).io_time;
  }

  static Engine* engine_;
  static MicroBenchDb* db_;
};

Engine* SmoothScanTest::engine_ = nullptr;
MicroBenchDb* SmoothScanTest::db_ = nullptr;

// ---------- Equivalence across the configuration space ----------

using ConfigParam = std::tuple<MorphPolicy, MorphTrigger, bool, double>;

std::string ConfigParamName(const ::testing::TestParamInfo<ConfigParam>& info) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s_%s_%s_sel%d",
                MorphPolicyToString(std::get<0>(info.param)),
                MorphTriggerToString(std::get<1>(info.param)),
                std::get<2>(info.param) ? "ordered" : "unordered",
                static_cast<int>(std::get<3>(info.param) * 10000));
  return buf;
}

class SmoothScanEquivalence
    : public SmoothScanTest,
      public ::testing::WithParamInterface<ConfigParam> {};

TEST_P(SmoothScanEquivalence, MatchesOracle) {
  const auto [policy, trigger, preserve_order, selectivity] = GetParam();
  const ScanPredicate pred = db_->PredicateForSelectivity(selectivity);

  SmoothScanOptions options;
  options.policy = policy;
  options.trigger = trigger;
  options.preserve_order = preserve_order;
  options.optimizer_estimate = 50;
  options.sla_trigger_cardinality = 120;
  SmoothScan scan(&db_->index(), pred, options);
  EXPECT_EQ(Collect(&scan), Oracle(pred));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SmoothScanEquivalence,
    ::testing::Combine(
        ::testing::Values(MorphPolicy::kGreedy,
                          MorphPolicy::kSelectivityIncrease,
                          MorphPolicy::kElastic),
        ::testing::Values(MorphTrigger::kEager, MorphTrigger::kOptimizerDriven,
                          MorphTrigger::kSlaDriven),
        ::testing::Bool(),
        ::testing::Values(0.0, 0.0005, 0.01, 0.2, 1.0)),
    ConfigParamName);

// ---------- Residual predicates ----------

TEST_F(SmoothScanTest, ResidualPredicateRespected) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  pred.residual = [](const Tuple& t) { return t[3].AsInt64() < 50000; };
  const std::multiset<int64_t> expected = Oracle(pred);
  ASSERT_FALSE(expected.empty());
  for (const bool ordered : {false, true}) {
    SmoothScanOptions options;
    options.preserve_order = ordered;
    SmoothScan scan(&db_->index(), pred, options);
    EXPECT_EQ(Collect(&scan), expected) << (ordered ? "ordered" : "unordered");
  }
}

TEST_F(SmoothScanTest, ResidualWithNonEagerTrigger) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  pred.residual = [](const Tuple& t) { return t[4].AsInt64() % 3 == 0; };
  SmoothScanOptions options;
  options.trigger = MorphTrigger::kOptimizerDriven;
  options.optimizer_estimate = 25;
  SmoothScan scan(&db_->index(), pred, options);
  EXPECT_EQ(Collect(&scan), Oracle(pred));
  EXPECT_TRUE(scan.smooth_stats().triggered);
}

// ---------- Ordering ----------

TEST_F(SmoothScanTest, OrderedModeEmitsKeyOrder) {
  for (const double sel : {0.001, 0.05, 0.5}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    SmoothScanOptions options;
    options.preserve_order = true;
    SmoothScan scan(&db_->index(), pred, options);
    engine_->ColdRestart();
    ASSERT_TRUE(scan.Open().ok());
    int64_t prev = INT64_MIN;
    uint64_t n = 0;
    TupleBatch batch;
    while (scan.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        const Tuple& t = batch.row(i);
        EXPECT_GE(t[kC2].AsInt64(), prev) << "sel=" << sel;
        prev = t[kC2].AsInt64();
        ++n;
      }
    }
    EXPECT_EQ(n, Oracle(pred).size());
  }
}

TEST(SmoothScanOrderTest, OrderedModeEmitsKeyOrderWithManyDuplicateKeys) {
  // A narrow key domain puts ~40 rows on every key, so the Result Cache holds
  // many tuples per key and releases them across region boundaries.
  EngineOptions eo;
  eo.buffer_pool_pages = 128;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 500;
  MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.PredicateForSelectivity(0.3);

  std::multiset<int64_t> expected;
  std::set<int64_t> distinct_keys;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (!pred.Matches(t)) return;
    expected.insert(t[0].AsInt64());
    distinct_keys.insert(t[kC2].AsInt64());
  });
  ASSERT_GT(expected.size(), 10 * distinct_keys.size());

  SmoothScanOptions options;
  options.preserve_order = true;
  SmoothScan scan(&db.index(), pred, options);
  engine.ColdRestart();
  ASSERT_TRUE(scan.Open().ok());
  std::multiset<int64_t> got;
  int64_t prev = INT64_MIN;
  TupleBatch batch;
  while (scan.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_GE(t[kC2].AsInt64(), prev);
      prev = t[kC2].AsInt64();
      got.insert(t[0].AsInt64());
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(SmoothScanOrderTest, OrderedSmoothFirstKeysCheaperThanOrderedSortScan) {
  // An ordered consumer that stops after the first keys (a merge join whose
  // other input ends, a LIMIT) pays an ordered Smooth Scan only for the
  // regions it reached, while an ordered Sort Scan reads and sorts the whole
  // 50% result before its first row.
  EngineOptions eo;
  eo.buffer_pool_pages = 128;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 50000;
  MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.PredicateForSelectivity(0.5);
  constexpr int64_t kLastKey = 3;

  auto sim_cost = [&](AccessPath* path) {
    engine.ColdRestart();
    const IoStats before = engine.disk().stats();
    const double cpu_before = engine.cpu().time();
    SMOOTHSCAN_CHECK(path->Open().ok());
    bool past_last_key = false;
    TupleBatch batch;
    while (!past_last_key && path->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        past_last_key |= batch.row(i)[kC2].AsInt64() > kLastKey;
      }
    }
    EXPECT_TRUE(past_last_key);
    path->Close();
    return (engine.disk().stats() - before).io_time + engine.cpu().time() -
           cpu_before;
  };

  SmoothScanOptions so;
  so.preserve_order = true;
  SmoothScan smooth(&db.index(), pred, so);
  SortScanOptions sorted;
  sorted.preserve_order = true;
  SortScan sort(&db.index(), pred, sorted);
  EXPECT_LT(sim_cost(&smooth), sim_cost(&sort));
}

// ---------- Worst-case bound (Section III-C, Eager) ----------

TEST_F(SmoothScanTest, EagerNeverProbesMorePagesThanTable) {
  for (const double sel : {0.01, 0.5, 1.0}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    SmoothScan scan(&db_->index(), pred);
    Collect(&scan);
    EXPECT_LE(scan.stats().heap_pages_probed, db_->heap().num_pages());
    EXPECT_LE(scan.smooth_stats().pages_seen, db_->heap().num_pages());
  }
}

TEST_F(SmoothScanTest, EagerNeverReadsHeapPageTwice) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SmoothScan scan(&db_->index(), pred);
  engine_->ColdRestart();
  const IoStats before = engine_->disk().stats();
  Collect(&scan);
  const IoStats d = engine_->disk().stats() - before;
  // Heap pages read once + index pages; generous slack for the index.
  EXPECT_LE(d.pages_read,
            db_->heap().num_pages() +
                engine_->storage().NumPages(db_->index().file_id()));
}

// ---------- Smoothness: no cliffs ----------

TEST_F(SmoothScanTest, CostIsMonotoneAndCliffFree) {
  // Sweep selectivity; cost must grow monotonically (within noise) and no
  // single step may multiply cost by more than the step's size warrants.
  const double sels[] = {0.0005, 0.001, 0.002, 0.005, 0.01,
                         0.02,   0.05,  0.1,   0.2,   0.5};
  double prev_cost = 0.0;
  for (const double sel : sels) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    SmoothScan scan(&db_->index(), pred);
    const double cost = MeasureIoTime(&scan);
    if (prev_cost > 0.0) {
      EXPECT_GE(cost, prev_cost * 0.7) << "sel=" << sel;  // Monotone-ish.
      EXPECT_LE(cost, prev_cost * 12.0) << "sel=" << sel;  // No cliff.
    }
    prev_cost = cost;
  }
}

TEST_F(SmoothScanTest, OneExtraTupleNeverDoublesCost) {
  // The paper's core robustness claim: an extra result tuple must not cause
  // a drastic performance change (unlike Switch Scan's cliff).
  const ScanPredicate p1 = db_->PredicateForSelectivity(0.0100);
  const ScanPredicate p2 = db_->PredicateForSelectivity(0.0102);
  SmoothScan s1(&db_->index(), p1);
  SmoothScan s2(&db_->index(), p2);
  const double c1 = MeasureIoTime(&s1);
  const double c2 = MeasureIoTime(&s2);
  EXPECT_LE(std::abs(c2 - c1), 0.25 * c1);
}

// ---------- Competitive behaviour ----------

TEST_F(SmoothScanTest, NearFullScanAtFullSelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SmoothScan smooth(&db_->index(), pred);
  FullScan full(&db_->heap(), pred);
  const double smooth_cost = MeasureIoTime(&smooth);
  const double full_cost = MeasureIoTime(&full);
  // Fig. 5b: within ~20% of Full Scan at 100% selectivity (we allow 2x).
  EXPECT_LE(smooth_cost, full_cost * 2.0);
}

TEST_F(SmoothScanTest, FarBetterThanIndexScanAtHighSelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  SmoothScan smooth(&db_->index(), pred);
  IndexScan index(&db_->index(), pred);
  const double smooth_cost = MeasureIoTime(&smooth);
  const double index_cost = MeasureIoTime(&index);
  EXPECT_LT(smooth_cost * 3.0, index_cost);
}

TEST_F(SmoothScanTest, CompetitiveAtLowSelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.0005);
  SmoothScan smooth(&db_->index(), pred);
  FullScan full(&db_->heap(), pred);
  const double smooth_cost = MeasureIoTime(&smooth);
  const double full_cost = MeasureIoTime(&full);
  // Far below the full-scan cost for a point-ish query.
  EXPECT_LT(smooth_cost, full_cost);
}

// ---------- Policy dynamics ----------

TEST_F(SmoothScanTest, GreedyExpandsEveryProbeUntilCap) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.001);
  SmoothScanOptions options;
  options.policy = MorphPolicy::kGreedy;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  // Greedy doubles from 1 page, so it can grow at most log2(cap) times; every
  // probe past that point leaves the region at the cap and must not count.
  const uint64_t growth_steps = static_cast<uint64_t>(
      std::ceil(std::log2(static_cast<double>(options.max_region_pages))));
  EXPECT_EQ(scan.smooth_stats().expansions,
            std::min(scan.smooth_stats().probes, growth_steps));
  EXPECT_EQ(scan.smooth_stats().shrinks, 0u);
}

TEST_F(SmoothScanTest, ExpansionCounterStopsAtRegionCap) {
  // High selectivity + a tiny cap: the region saturates after two doublings
  // (1 -> 2 -> 4) and the many remaining probes must not inflate the counter.
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SmoothScanOptions options;
  options.policy = MorphPolicy::kGreedy;
  options.max_region_pages = 4;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_GT(scan.smooth_stats().probes, 2u);
  EXPECT_EQ(scan.smooth_stats().expansions, 2u);
  EXPECT_EQ(scan.current_region_pages(), 4u);
}

TEST(MorphRegionStepTest, NoCountAtCapOrFloor) {
  uint64_t expansions = 0;
  uint64_t shrinks = 0;
  // At the cap every policy's growth step is a no-op: size and counters hold.
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kGreedy, 16, 16, 0, 0, 16, 16,
                            &expansions, &shrinks),
            16u);
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kSelectivityIncrease, 16, 16, 0, 0,
                            16, 16, &expansions, &shrinks),
            16u);
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kElastic, 16, 16, 0, 0, 16, 16,
                            &expansions, &shrinks),
            16u);
  EXPECT_EQ(expansions, 0u);
  // An Elastic halving already at one page is equally a no-op.
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kElastic, 1, 16, /*seen=*/10,
                            /*with_results=*/10, /*region_seen=*/1,
                            /*region_results=*/0, &expansions, &shrinks),
            1u);
  EXPECT_EQ(shrinks, 0u);
  // Below cap/floor, real steps still count (8 -> 16 clamps to the cap but
  // changes the region, so it is an expansion; 4 -> 2 is a shrink).
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kGreedy, 8, 16, 0, 0, 8, 8,
                            &expansions, &shrinks),
            16u);
  EXPECT_EQ(expansions, 1u);
  EXPECT_EQ(MorphRegionStep(MorphPolicy::kElastic, 4, 16, /*seen=*/10,
                            /*with_results=*/10, /*region_seen=*/4,
                            /*region_results=*/0, &expansions, &shrinks),
            2u);
  EXPECT_EQ(shrinks, 1u);
}

TEST_F(SmoothScanTest, SelectivityIncreaseNeverShrinks) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SmoothScanOptions options;
  options.policy = MorphPolicy::kSelectivityIncrease;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_EQ(scan.smooth_stats().shrinks, 0u);
}

TEST_F(SmoothScanTest, ElasticShrinksInSparseRegions) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.0005);
  SmoothScanOptions options;
  options.policy = MorphPolicy::kElastic;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_GT(scan.smooth_stats().shrinks, 0u);
}

TEST_F(SmoothScanTest, RegionCappedAtMax) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SmoothScanOptions options;
  options.max_region_pages = 16;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_LE(scan.current_region_pages(), 16u);
}

TEST_F(SmoothScanTest, FlatteningDisabledStaysMode1) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  SmoothScanOptions options;
  options.enable_flattening = false;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_EQ(scan.smooth_stats().card_mode2, 0u);
  EXPECT_GT(scan.smooth_stats().card_mode1, 0u);
  // Every probe fetched exactly one page.
  EXPECT_EQ(scan.smooth_stats().probes, scan.smooth_stats().pages_seen);
}

TEST_F(SmoothScanTest, Mode1StillBeatsIndexScanAtFullSelectivity) {
  // Fig. 6: Entire Page Probe alone wins ~10x over Index Scan at 100%.
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SmoothScanOptions options;
  options.enable_flattening = false;
  SmoothScan mode1(&db_->index(), pred, options);
  IndexScan index(&db_->index(), pred);
  EXPECT_LT(MeasureIoTime(&mode1) * 2.0, MeasureIoTime(&index));
}

// ---------- Triggers ----------

TEST_F(SmoothScanTest, EagerStartsMorphed) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.01);
  SmoothScan scan(&db_->index(), pred);
  Collect(&scan);
  EXPECT_EQ(scan.smooth_stats().card_mode0, 0u);
}

TEST_F(SmoothScanTest, OptimizerTriggerProducesEstimateViaMode0) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SmoothScanOptions options;
  options.trigger = MorphTrigger::kOptimizerDriven;
  options.optimizer_estimate = 40;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_TRUE(scan.smooth_stats().triggered);
  EXPECT_EQ(scan.smooth_stats().card_mode0, 40u);
  EXPECT_GT(scan.smooth_stats().card_mode1 + scan.smooth_stats().card_mode2,
            0u);
}

TEST_F(SmoothScanTest, NoTriggerWhenCardinalityWithinEstimate) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.001);
  const size_t card = Oracle(pred).size();
  SmoothScanOptions options;
  options.trigger = MorphTrigger::kOptimizerDriven;
  options.optimizer_estimate = card + 5;
  SmoothScan scan(&db_->index(), pred, options);
  const auto got = Collect(&scan);
  EXPECT_EQ(got.size(), card);
  EXPECT_FALSE(scan.smooth_stats().triggered);
  EXPECT_EQ(scan.smooth_stats().card_mode0, card);
}

TEST_F(SmoothScanTest, SlaTriggerBehavesLikeThreshold) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SmoothScanOptions options;
  options.trigger = MorphTrigger::kSlaDriven;
  options.sla_trigger_cardinality = 25;
  options.post_trigger_policy = MorphPolicy::kGreedy;
  SmoothScan scan(&db_->index(), pred, options);
  EXPECT_EQ(Collect(&scan), Oracle(pred));
  EXPECT_TRUE(scan.smooth_stats().triggered);
  EXPECT_EQ(scan.smooth_stats().card_mode0, 25u);
}

TEST_F(SmoothScanTest, ZeroEstimateTriggersImmediately) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.01);
  SmoothScanOptions options;
  options.trigger = MorphTrigger::kOptimizerDriven;
  options.optimizer_estimate = 0;
  SmoothScan scan(&db_->index(), pred, options);
  EXPECT_EQ(Collect(&scan), Oracle(pred));
  EXPECT_EQ(scan.smooth_stats().card_mode0, 0u);
}

// ---------- Auxiliary structures ----------

TEST_F(SmoothScanTest, ResultCacheHitRateHighAtModerateSelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.03);
  SmoothScanOptions options;
  options.preserve_order = true;
  SmoothScan scan(&db_->index(), pred, options);
  Collect(&scan);
  const SmoothScanStats& ss = scan.smooth_stats();
  EXPECT_GT(ss.rc_probes, 0u);
  // Fig. 9a: hit rate approaches 100% around 1% selectivity.
  EXPECT_GT(ss.ResultCacheHitRate(), 0.8);
}

TEST_F(SmoothScanTest, MorphingAccuracyFullAtHighSelectivity) {
  // Fig. 9b: accuracy reaches 100% once every page holds a result (~2.5%).
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SmoothScan scan(&db_->index(), pred);
  Collect(&scan);
  EXPECT_GT(scan.smooth_stats().MorphingAccuracy(), 0.95);
}

TEST_F(SmoothScanTest, MorphingAccuracyLowAtTinySelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.0002);
  SmoothScan scan(&db_->index(), pred);
  Collect(&scan);
  const SmoothScanStats& ss = scan.smooth_stats();
  if (ss.morph_checked_pages > 0) {
    EXPECT_LT(ss.MorphingAccuracy(), 0.8);
  }
}

TEST_F(SmoothScanTest, ModeCardinalitiesSumToProduced) {
  for (const auto trigger :
       {MorphTrigger::kEager, MorphTrigger::kOptimizerDriven}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
    SmoothScanOptions options;
    options.trigger = trigger;
    options.optimizer_estimate = 30;
    SmoothScan scan(&db_->index(), pred, options);
    const auto got = Collect(&scan);
    const SmoothScanStats& ss = scan.smooth_stats();
    EXPECT_EQ(ss.card_mode0 + ss.card_mode1 + ss.card_mode2, got.size());
  }
}

// ---------- Skew adaptation (Section VI-D) ----------

TEST(SmoothScanSkewTest, ElasticReadsFarFewerPagesThanSiUnderSkew) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  SkewedBenchSpec spec;
  spec.num_tuples = 40000;
  spec.dense_prefix = 400;
  // Enough scattered matches after the dense head that SI's sticky region
  // keeps fetching big chunks across the table (the Fig. 8 scenario).
  spec.extra_match_fraction = 0.001;
  MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.ZeroKeyPredicate();

  auto run = [&](MorphPolicy policy) -> std::pair<uint64_t, size_t> {
    SmoothScanOptions options;
    options.policy = policy;
    SmoothScan scan(&db.index(), pred, options);
    engine.ColdRestart();
    SMOOTHSCAN_CHECK(scan.Open().ok());
    size_t n = 0;
    TupleBatch batch;
    while (scan.NextBatch(&batch)) n += batch.size();
    return {scan.smooth_stats().pages_seen, n};
  };

  const auto [si_pages, si_rows] = run(MorphPolicy::kSelectivityIncrease);
  const auto [elastic_pages, elastic_rows] = run(MorphPolicy::kElastic);
  EXPECT_EQ(si_rows, elastic_rows);
  // Fig. 8b: SI keeps fetching big regions after the dense head; Elastic
  // shrinks back and touches far fewer pages.
  EXPECT_LT(elastic_pages * 2, si_pages);
}

}  // namespace
}  // namespace smoothscan
