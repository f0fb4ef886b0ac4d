// Optimizer tests: histogram-based selectivity estimation, the textbook
// access-path choice as a function of (possibly corrupted) statistics, and
// the MakePath factory.

#include <gtest/gtest.h>

#include "plan/access_path_chooser.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    db_ = new MicroBenchDb(engine_, spec);
    stats_ = new TableStats(
        TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete db_;
    delete engine_;
    stats_ = nullptr;
    db_ = nullptr;
    engine_ = nullptr;
  }

  static CostModel Model() {
    CostModelParams params;
    params.num_tuples = db_->heap().num_tuples();
    params.tuple_size =
        8192 / (db_->heap().num_tuples() / db_->heap().num_pages());
    return CostModel(params);
  }

  static Engine* engine_;
  static MicroBenchDb* db_;
  static TableStats* stats_;
};

Engine* PlanTest::engine_ = nullptr;
MicroBenchDb* PlanTest::db_ = nullptr;
TableStats* PlanTest::stats_ = nullptr;

TEST_F(PlanTest, HistogramEstimatesUniformRange) {
  // c2 is uniform on [0, 100000]: a quarter range is ~25% selective.
  const double sel = stats_->EstimateSelectivity(0, 25000);
  EXPECT_NEAR(sel, 0.25, 0.03);
}

TEST_F(PlanTest, EstimateFullAndEmptyRanges) {
  EXPECT_NEAR(stats_->EstimateSelectivity(0, 100001), 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(stats_->EstimateSelectivity(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(stats_->EstimateSelectivity(200000, 300000), 0.0);
}

TEST_F(PlanTest, CardinalityMatchesSelectivity) {
  const uint64_t card = stats_->EstimateCardinality(0, 50000);
  EXPECT_NEAR(static_cast<double>(card), 10000.0, 800.0);
}

TEST_F(PlanTest, CorruptionScalesEstimates) {
  TableStats corrupted = *stats_;
  corrupted.CorruptScale(0.01);
  EXPECT_NEAR(corrupted.EstimateSelectivity(0, 100001), 0.01, 0.001);
}

TEST_F(PlanTest, ChoosesFullScanForHighSelectivity) {
  const PlanChoice c =
      AccessPathChooser::Choose(*stats_, Model(), 0, 90000, false);
  EXPECT_NE(c.kind, PathKind::kIndexScan);
  EXPECT_GT(c.estimated_selectivity, 0.8);
}

TEST_F(PlanTest, ChoosesIndexForPointQuery) {
  const PlanChoice c = AccessPathChooser::Choose(*stats_, Model(), 0, 3, false);
  // A handful of tuples: an index-based path must win over the full scan.
  EXPECT_NE(c.kind, PathKind::kFullScan);
}

TEST_F(PlanTest, CorruptedStatsFlipTheChoice) {
  // The Fig. 1 mechanism: with honest stats a 60% predicate gets a scan-like
  // path; with 1000x-underestimating stats the optimizer believes it's a
  // point query and picks an index-based path.
  const CostModel model = Model();
  const PlanChoice honest =
      AccessPathChooser::Choose(*stats_, model, 0, 60000, false);
  TableStats corrupted = *stats_;
  corrupted.CorruptScale(0.001);
  const PlanChoice fooled =
      AccessPathChooser::Choose(corrupted, model, 0, 60000, false);
  EXPECT_NE(honest.kind, PathKind::kIndexScan);
  // The fooled optimizer picks an index-based path (index or bitmap scan).
  EXPECT_NE(fooled.kind, PathKind::kFullScan);
  EXPECT_LT(fooled.estimated_cardinality, honest.estimated_cardinality / 100);
}

TEST_F(PlanTest, OrderRequirementPenalizesScans) {
  // With an interesting order, index-based paths avoid the posterior sort.
  const CostModel model = Model();
  const PlanChoice without =
      AccessPathChooser::Choose(*stats_, model, 0, 50, false);
  const PlanChoice with =
      AccessPathChooser::Choose(*stats_, model, 0, 50, true);
  EXPECT_LE(with.estimated_cost, without.estimated_cost * 100);
  EXPECT_NE(with.kind, PathKind::kFullScan);
}

TEST_F(PlanTest, DopScalesWallEstimateNotSimulatedCost) {
  const CostModel model = Model();
  ChooserOptions serial;
  const PlanChoice at1 = AccessPathChooser::Choose(*stats_, model, 0, 90000,
                                                   serial);
  ChooserOptions eight;
  eight.dop = 8;
  const PlanChoice at8 = AccessPathChooser::Choose(*stats_, model, 0, 90000,
                                                   eight);
  // Simulated cost is DOP-invariant; only the wall estimate shrinks.
  EXPECT_DOUBLE_EQ(at8.estimated_cost, at1.estimated_cost);
  EXPECT_LT(at8.estimated_wall_cost, at1.estimated_cost);
  EXPECT_DOUBLE_EQ(at1.estimated_wall_cost, at1.estimated_cost);
  EXPECT_EQ(at8.dop, 8u);
}

TEST_F(PlanTest, MakePathWithDopReturnsParallelVariant) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  ParallelScanOptions parallel;
  parallel.dop = 4;
  for (const PathKind kind :
       {PathKind::kFullScan, PathKind::kIndexScan, PathKind::kSortScan,
        PathKind::kSwitchScan, PathKind::kSmoothScan}) {
    std::unique_ptr<AccessPath> path =
        MakeParallelPath(kind, &db_->index(), pred, false, 100, parallel);
    ASSERT_NE(path, nullptr) << PathKindToString(kind);
    engine_->ColdRestart();
    ASSERT_TRUE(path->Open().ok());
    uint64_t n = 0;
    TupleBatch batch;
    while (path->NextBatch(&batch)) n += batch.size();
    EXPECT_GT(n, 0u) << PathKindToString(kind);
    path->Close();
  }
  // Order-preserving consumers keep the serial operator.
  EXPECT_EQ(MakeParallelPath(PathKind::kSmoothScan, &db_->index(), pred,
                             /*need_order=*/true, 100, parallel),
            nullptr);
}

TEST_F(PlanTest, MakePathConstructsEveryKind) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.01);
  for (const PathKind kind :
       {PathKind::kFullScan, PathKind::kIndexScan, PathKind::kSortScan,
        PathKind::kSwitchScan, PathKind::kSmoothScan}) {
    std::unique_ptr<AccessPath> path =
        MakePath(kind, &db_->index(), pred, false, 100);
    ASSERT_NE(path, nullptr) << PathKindToString(kind);
    engine_->ColdRestart();
    ASSERT_TRUE(path->Open().ok());
    uint64_t n = 0;
    TupleBatch batch;
    while (path->NextBatch(&batch)) n += batch.size();
    EXPECT_GT(n, 0u) << PathKindToString(kind);
  }
}

TEST_F(PlanTest, PathKindNames) {
  EXPECT_STREQ(PathKindToString(PathKind::kFullScan), "FullScan");
  EXPECT_STREQ(PathKindToString(PathKind::kSmoothScan), "SmoothScan");
}

}  // namespace
}  // namespace smoothscan
