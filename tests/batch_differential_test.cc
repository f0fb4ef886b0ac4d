// Differential testing of the vectorized substrate: for every access path
// (and for Smooth Scan, every morphing policy), draining via NextBatch at
// several batch capacities, including the degenerate capacity 1, must
// produce exactly the same tuple *sequence* and exactly the same
// AccessPathStats as a drain at the default capacity (kDefaultBatchSize).
// The drains run on the SAME operator instance through a Close()/re-Open()
// cycle, which also exercises the documented lifecycle contract (Close
// releases state; re-Open restarts the identical stream).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

struct Drained {
  std::vector<Tuple> rows;
  AccessPathStats stats;
};

Drained DrainBatch(Engine* engine, AccessPath* path,
                   size_t batch_size = kDefaultBatchSize) {
  engine->ColdRestart();
  EXPECT_TRUE(path->Open().ok());
  Drained d;
  TupleBatch batch(batch_size);
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) d.rows.push_back(batch.row(i));
  }
  d.stats = path->stats();
  path->Close();
  return d;
}

void ExpectSame(const Drained& a, const Drained& b, const char* label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i], b.rows[i]) << label << " row " << i;
  }
  EXPECT_EQ(a.stats.tuples_produced, b.stats.tuples_produced) << label;
  EXPECT_EQ(a.stats.tuples_inspected, b.stats.tuples_inspected) << label;
  EXPECT_EQ(a.stats.heap_pages_probed, b.stats.heap_pages_probed) << label;
}

/// Drains `path` at the default capacity, then re-Opens and drains it at
/// several capacities; every drain must agree with the first.
void CheckPath(Engine* engine, AccessPath* path, const char* label) {
  const Drained oracle = DrainBatch(engine, path);
  EXPECT_GT(oracle.rows.size(), 0u) << label;
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    ExpectSame(oracle, DrainBatch(engine, path, batch_size), label);
  }
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions eo;
    eo.buffer_pool_pages = 256;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 2000;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

TEST_F(BatchDifferentialTest, FullScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.2);
  FullScan path(&db_->heap(), pred);
  CheckPath(engine_.get(), &path, "FullScan");
}

TEST_F(BatchDifferentialTest, FullScanWithResidual) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 3 != 0; };
  FullScan path(&db_->heap(), pred);
  CheckPath(engine_.get(), &path, "FullScan+residual");
}

TEST_F(BatchDifferentialTest, IndexScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.02);
  IndexScan path(&db_->index(), pred);
  CheckPath(engine_.get(), &path, "IndexScan");
}

TEST_F(BatchDifferentialTest, SortScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  SortScanOptions so;
  so.preserve_order = true;
  SortScan path(&db_->index(), pred, so);
  CheckPath(engine_.get(), &path, "SortScan");
}

TEST_F(BatchDifferentialTest, SwitchScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  SwitchScanOptions so;
  so.estimated_cardinality = 500;  // Forces the mid-stream switch.
  SwitchScan path(&db_->index(), pred, so);
  CheckPath(engine_.get(), &path, "SwitchScan");
}

TEST_F(BatchDifferentialTest, SmoothScanAllPolicies) {
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const bool ordered : {false, true}) {
      ScanPredicate pred = db_->PredicateForSelectivity(0.15);
      SmoothScanOptions so;
      so.policy = policy;
      so.preserve_order = ordered;
      SmoothScan path(&db_->index(), pred, so);
      std::string label = std::string("SmoothScan/") +
                          MorphPolicyToString(policy) +
                          (ordered ? "/ordered" : "/unordered");
      CheckPath(engine_.get(), &path, label.c_str());
    }
  }
}

TEST_F(BatchDifferentialTest, SmoothScanNonEagerTriggers) {
  for (const MorphTrigger trigger :
       {MorphTrigger::kOptimizerDriven, MorphTrigger::kSlaDriven}) {
    ScanPredicate pred = db_->PredicateForSelectivity(0.2);
    SmoothScanOptions so;
    so.trigger = trigger;
    so.optimizer_estimate = 200;
    so.sla_trigger_cardinality = 200;
    SmoothScan path(&db_->index(), pred, so);
    CheckPath(engine_.get(), &path,
              trigger == MorphTrigger::kOptimizerDriven ? "SmoothScan/opt"
                                                        : "SmoothScan/sla");
  }
}

}  // namespace
}  // namespace smoothscan
