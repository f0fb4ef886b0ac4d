// Access-path tests: Full Scan, Index Scan, Sort Scan and Switch Scan —
// result equivalence against a brute-force oracle across the selectivity
// range, ordering guarantees, I/O pattern properties, and the Switch Scan
// seam (no duplicates, no losses around the switch point).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "common/rng.h"
#include "plan/access_path_chooser.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

constexpr int kC2 = MicroBenchDb::kIndexedColumn;

/// Shared fixture data: one generated table reused across tests.
class AccessPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    EngineOptions options;
    options.buffer_pool_pages = 256;  // Small pool: I/O patterns matter.
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

  /// Brute-force oracle: multiset of c1 ids matching the predicate.
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

  static Engine* engine_;
  static MicroBenchDb* db_;
};

Engine* AccessPathTest::engine_ = nullptr;
MicroBenchDb* AccessPathTest::db_ = nullptr;

// ---------- Equivalence sweep (parameterized over selectivity) ----------

class AccessPathEquivalence : public AccessPathTest,
                              public ::testing::WithParamInterface<double> {};

TEST_P(AccessPathEquivalence, AllPathsProduceOracleResult) {
  const ScanPredicate pred = db_->PredicateForSelectivity(GetParam());
  const std::multiset<int64_t> expected = Oracle(pred);

  FullScan full(&db_->heap(), pred);
  EXPECT_EQ(Collect(&full), expected) << "FullScan";

  IndexScan index(&db_->index(), pred);
  EXPECT_EQ(Collect(&index), expected) << "IndexScan";

  SortScan sort(&db_->index(), pred);
  EXPECT_EQ(Collect(&sort), expected) << "SortScan";

  std::unique_ptr<AccessPath> sort_ordered = MakePath(
      PathKind::kSortScan, &db_->index(), pred, /*need_order=*/true, 0);
  EXPECT_EQ(Collect(sort_ordered.get()), expected) << "SortScan(ordered)";

  SwitchScanOptions sw;
  sw.estimated_cardinality = 100;
  SwitchScan switch_scan(&db_->index(), pred, sw);
  EXPECT_EQ(Collect(&switch_scan), expected) << "SwitchScan";
}

INSTANTIATE_TEST_SUITE_P(SelectivitySweep, AccessPathEquivalence,
                         ::testing::Values(0.0, 0.00001, 0.0001, 0.001, 0.01,
                                           0.05, 0.2, 0.5, 0.75, 1.0));

// ---------- Residual predicates ----------

TEST_F(AccessPathTest, ResidualPredicateApplied) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.2);
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 2 == 0; };
  const std::multiset<int64_t> expected = Oracle(pred);
  ASSERT_FALSE(expected.empty());

  FullScan full(&db_->heap(), pred);
  EXPECT_EQ(Collect(&full), expected);
  IndexScan index(&db_->index(), pred);
  EXPECT_EQ(Collect(&index), expected);
  SortScan sort(&db_->index(), pred);
  EXPECT_EQ(Collect(&sort), expected);
}

TEST_F(AccessPathTest, EmptyRangeProducesNothing) {
  ScanPredicate pred;
  pred.column = kC2;
  pred.lo = 500;
  pred.hi = 500;  // Empty half-open range.
  FullScan full(&db_->heap(), pred);
  EXPECT_TRUE(Collect(&full).empty());
  IndexScan index(&db_->index(), pred);
  EXPECT_TRUE(Collect(&index).empty());
}

// ---------- Ordering ----------

TEST_F(AccessPathTest, IndexScanEmitsKeyOrder) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  IndexScan index(&db_->index(), pred);
  engine_->ColdRestart();
  ASSERT_TRUE(index.Open().ok());
  int64_t prev = INT64_MIN;
  TupleBatch batch;
  while (index.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_GE(t[kC2].AsInt64(), prev);
      prev = t[kC2].AsInt64();
    }
  }
}

TEST_F(AccessPathTest, OrderedSortScanEmitsKeyOrder) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  std::unique_ptr<AccessPath> sort = MakePath(
      PathKind::kSortScan, &db_->index(), pred, /*need_order=*/true, 0);
  engine_->ColdRestart();
  ASSERT_TRUE(sort->Open().ok());
  int64_t prev = INT64_MIN;
  TupleBatch batch;
  while (sort->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_GE(t[kC2].AsInt64(), prev);
      prev = t[kC2].AsInt64();
    }
  }
}

TEST_F(AccessPathTest, UnorderedSortScanEmitsHeapOrder) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SortScan sort(&db_->index(), pred);
  engine_->ColdRestart();
  ASSERT_TRUE(sort.Open().ok());
  int64_t prev = INT64_MIN;  // c1 equals heap order.
  TupleBatch batch;
  while (sort.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_GT(t[0].AsInt64(), prev);
      prev = t[0].AsInt64();
    }
  }
}

// CollectSortedTids' linear sort must return exactly the comparison sort's
// (page, slot) order. The index here is built over hand-picked TIDs with
// seeded random keys, so the leaf walk hands them over in random order.
TEST_F(AccessPathTest, CollectSortedTidsMatchesComparisonSort) {
  const HeapFile& heap = db_->heap();
  const PageId last_page = static_cast<PageId>(heap.num_pages() - 1);
  Rng rng(2024);
  auto random_tids = [&](size_t n) {
    std::vector<Tid> tids = {{0, 0}, {last_page, 1}};  // Both ends.
    while (tids.size() < n) {
      tids.push_back({static_cast<PageId>(rng.UniformInt(0, last_page)),
                      static_cast<SlotId>(rng.UniformInt(0, 120))});
    }
    tids.resize(n);
    return tids;
  };
  std::vector<std::vector<Tid>> sets = {{}, {{last_page, 5}}};
  for (const size_t n : {kTidCountingSortMin - 1, kTidCountingSortMin,
                         kTidCountingSortMin + 1, size_t{5000}}) {
    sets.push_back(random_tids(n));
  }
  // Every slot of one page, highest first.
  const uint16_t slots = engine_->storage().GetPage(heap.file_id(), 7)
                             .num_slots();
  std::vector<Tid>& one_page = sets.emplace_back();
  for (uint16_t s = slots; s-- > 0;) one_page.push_back({7, s});

  ScanPredicate all;
  all.column = kC2;
  for (const std::vector<Tid>& set : sets) {
    BPlusTree tree(engine_, "tids", &heap, kC2);
    for (const Tid& tid : set) tree.Insert(rng.UniformInt(0, 999), tid);
    std::vector<Tid> expected = set;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(CollectSortedTids(&tree, all, EngineContext(engine_)),
              expected)
        << set.size() << " TIDs";
  }
}

// ---------- I/O pattern properties ----------

TEST_F(AccessPathTest, FullScanCostIndependentOfSelectivity) {
  double costs[2];
  int i = 0;
  for (const double sel : {0.001, 0.9}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    FullScan full(&db_->heap(), pred);
    engine_->ColdRestart();
    const IoStats before = engine_->disk().stats();
    Collect(&full);
    costs[i++] = (engine_->disk().stats() - before).io_time;
  }
  // I/O identical; only CPU (produce) differs.
  EXPECT_DOUBLE_EQ(costs[0], costs[1]);
}

TEST_F(AccessPathTest, FullScanIsAlmostEntirelySequential) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  FullScan full(&db_->heap(), pred);
  engine_->ColdRestart();
  const IoStats before = engine_->disk().stats();
  Collect(&full);
  const IoStats d = engine_->disk().stats() - before;
  EXPECT_LE(d.random_ios, 2u);
  EXPECT_EQ(d.pages_read, db_->heap().num_pages());
}

TEST_F(AccessPathTest, IndexScanRandomIoGrowsWithSelectivity) {
  uint64_t rand_ios[2];
  int i = 0;
  for (const double sel : {0.001, 0.05}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    IndexScan index(&db_->index(), pred);
    engine_->ColdRestart();
    const IoStats before = engine_->disk().stats();
    Collect(&index);
    rand_ios[i++] = (engine_->disk().stats() - before).random_ios;
  }
  EXPECT_GT(rand_ios[1], rand_ios[0] * 5);
}

TEST_F(AccessPathTest, SortScanNeverReadsMorePagesThanTable) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  SortScan sort(&db_->index(), pred);
  engine_->ColdRestart();
  Collect(&sort);
  // Heap pages are distinct by construction.
  EXPECT_LE(sort.stats().heap_pages_probed, db_->heap().num_pages());
}

TEST_F(AccessPathTest, SortScanFetchesOnlyResultPagesAtLowSelectivity) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.0005);
  SortScan sort(&db_->index(), pred);
  const auto results = Collect(&sort);
  EXPECT_LE(sort.stats().heap_pages_probed, results.size() + 1);
}

// ---------- Switch Scan ----------

TEST_F(AccessPathTest, SwitchScanDoesNotSwitchBelowEstimate) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.001);
  const size_t card = Oracle(pred).size();
  SwitchScanOptions options;
  options.estimated_cardinality = card + 10;
  SwitchScan scan(&db_->index(), pred, options);
  Collect(&scan);
  EXPECT_FALSE(scan.switched());
}

TEST_F(AccessPathTest, SwitchScanSwitchesAboveEstimate) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SwitchScanOptions options;
  options.estimated_cardinality = 10;
  SwitchScan scan(&db_->index(), pred, options);
  const std::multiset<int64_t> got = Collect(&scan);
  EXPECT_TRUE(scan.switched());
  EXPECT_EQ(got, Oracle(pred));  // No duplicates, no losses across the seam.
}

// The stop position across the seam: switching before the first result
// (estimate 0), after a few, and never (the exact estimate) all produce the
// oracle multiset. A reopened scan starts from the default position, which
// excludes nothing, and only a switch moves it.
TEST_F(AccessPathTest, SwitchScanSeamAtEveryEstimateMatchesOracle) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.02);
  const std::multiset<int64_t> oracle = Oracle(pred);
  ASSERT_GT(oracle.size(), 100u);
  for (const uint64_t estimate : {uint64_t{0}, uint64_t{7}, oracle.size()}) {
    SwitchScanOptions options;
    options.estimated_cardinality = estimate;
    SwitchScan scan(&db_->index(), pred, options);
    for (int run = 0; run < 2; ++run) {
      EXPECT_EQ(Collect(&scan), oracle) << "estimate " << estimate;
      EXPECT_EQ(scan.switched(), estimate < oracle.size());
      EXPECT_EQ(scan.stop() == IndexPosition(), !scan.switched());
    }
  }
}

TEST_F(AccessPathTest, SwitchScanCliffCostJump) {
  // One extra qualifying tuple beyond the estimate triggers a full-scan-sized
  // cost jump — the performance cliff of Fig. 11.
  const ScanPredicate pred = db_->PredicateForSelectivity(0.01);
  const size_t card = Oracle(pred).size();

  double time_below, time_above;
  {
    SwitchScanOptions options;
    options.estimated_cardinality = card;  // Not violated.
    SwitchScan scan(&db_->index(), pred, options);
    engine_->ColdRestart();
    const IoStats b = engine_->disk().stats();
    Collect(&scan);
    EXPECT_FALSE(scan.switched());
    time_below = (engine_->disk().stats() - b).io_time;
  }
  {
    SwitchScanOptions options;
    options.estimated_cardinality = card - 1;  // Violated by one tuple.
    SwitchScan scan(&db_->index(), pred, options);
    engine_->ColdRestart();
    const IoStats b = engine_->disk().stats();
    Collect(&scan);
    EXPECT_TRUE(scan.switched());
    time_above = (engine_->disk().stats() - b).io_time;
  }
  EXPECT_GT(time_above, time_below * 1.1);
}

TEST_F(AccessPathTest, StatsCountProducedTuples) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.02);
  const size_t card = Oracle(pred).size();
  FullScan full(&db_->heap(), pred);
  Collect(&full);
  EXPECT_EQ(full.stats().tuples_produced, card);
  EXPECT_EQ(full.stats().tuples_inspected, db_->heap().num_tuples());
}

}  // namespace
}  // namespace smoothscan
