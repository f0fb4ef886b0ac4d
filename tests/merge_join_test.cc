// MergeJoin tests, including the paper's signature composition: an
// order-preserving Smooth Scan feeding a Merge Join directly — the scenario
// the Result Cache was designed for (Section IV-B).

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "common/rng.h"
#include "exec/merge_join.h"
#include "exec/operators.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

class VectorSource : public Operator {
 public:
  explicit VectorSource(std::vector<Tuple> rows) : rows_(std::move(rows)) {}
  const char* name() const override { return "VectorSource"; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  bool NextBatchImpl(TupleBatch* out) override {
    while (next_ < rows_.size() && !out->full()) out->Append(rows_[next_++]);
    return !out->empty();
  }

 private:
  std::vector<Tuple> rows_;
  size_t next_ = 0;
};

std::unique_ptr<Operator> SortedInts(std::vector<int64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<Tuple> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.push_back({Value::Int64(keys[i]), Value::Int64(static_cast<int64_t>(i))});
  }
  return std::make_unique<VectorSource>(std::move(rows));
}

// Close()/re-Open must restart an identical stream even when the first run
// left the ordered-input trackers mid-stream (regression: stale
// left_last_key_ tripping the ordered-input check on the second Open).
TEST(MergeJoinTest, CloseReopenRestartsStream) {
  Engine engine;
  MergeJoinOp join(&engine, SortedInts({5, 6, 7}), SortedInts({1, 2, 5}), 0,
                   0);
  auto drain = [&join]() {
    SMOOTHSCAN_CHECK(join.Open().ok());
    std::vector<Tuple> rows;
    Drain(&join, &rows);
    join.Close();
    return rows;
  };
  const std::vector<Tuple> first = drain();
  const std::vector<Tuple> second = drain();
  ASSERT_EQ(first.size(), 1u);  // Key 5 matches.
  ASSERT_EQ(first, second);
}

TEST(MergeJoinTest, BasicEquiJoin) {
  Engine engine;
  MergeJoinOp join(&engine, SortedInts({1, 2, 3, 5}), SortedInts({2, 3, 4, 5}),
                   0, 0);
  SMOOTHSCAN_CHECK(join.Open().ok());
  int rows = 0;
  TupleBatch batch;
  while (join.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_EQ(t[0].AsInt64(), t[2].AsInt64());
      ++rows;
    }
  }
  EXPECT_EQ(rows, 3);  // Keys 2, 3, 5.
}

TEST(MergeJoinTest, EmptyInputs) {
  Engine engine;
  TupleBatch batch;
  MergeJoinOp a(&engine, SortedInts({}), SortedInts({1, 2}), 0, 0);
  SMOOTHSCAN_CHECK(a.Open().ok());
  EXPECT_FALSE(a.NextBatch(&batch));

  MergeJoinOp b(&engine, SortedInts({1, 2}), SortedInts({}), 0, 0);
  SMOOTHSCAN_CHECK(b.Open().ok());
  EXPECT_FALSE(b.NextBatch(&batch));
}

TEST(MergeJoinTest, NoOverlap) {
  Engine engine;
  MergeJoinOp join(&engine, SortedInts({1, 2, 3}), SortedInts({10, 11}), 0, 0);
  SMOOTHSCAN_CHECK(join.Open().ok());
  TupleBatch batch;
  EXPECT_FALSE(join.NextBatch(&batch));
}

TEST(MergeJoinTest, DuplicatesProduceCrossProductPerKey) {
  Engine engine;
  MergeJoinOp join(&engine, SortedInts({7, 7, 7}), SortedInts({7, 7}), 0, 0);
  SMOOTHSCAN_CHECK(join.Open().ok());
  int rows = 0;
  TupleBatch batch;
  while (join.NextBatch(&batch)) rows += batch.size();
  EXPECT_EQ(rows, 6);  // 3 x 2.
}

TEST(MergeJoinTest, MatchesHashJoinOnRandomInputs) {
  Engine engine;
  Rng rng(31);
  for (int trial = 0; trial < 13; ++trial) {
    // Trials 10+ give both sides more than two child batches over a few
    // dozen keys, so duplicate-key groups straddle batch boundaries.
    const bool large = trial >= 10;
    const int64_t min_rows = large ? 2 * kDefaultBatchSize + 1 : 0;
    const int64_t max_rows = large ? 3 * kDefaultBatchSize : 200;
    const int64_t max_key = large ? 30 : 40;
    std::vector<int64_t> left, right;
    const int n = static_cast<int>(rng.UniformInt(min_rows, max_rows));
    const int m = static_cast<int>(rng.UniformInt(min_rows, max_rows));
    for (int i = 0; i < n; ++i) left.push_back(rng.UniformInt(0, max_key));
    for (int i = 0; i < m; ++i) right.push_back(rng.UniformInt(0, max_key));

    MergeJoinOp merge(&engine, SortedInts(left), SortedInts(right), 0, 0);
    HashJoinOp hash(&engine, SortedInts(left), SortedInts(right), 0, 0);

    // Compare (left key, right key) multisets, and the (left row, right
    // row) pairs behind them, as sorted vectors.
    using Pairs = std::vector<std::pair<int64_t, int64_t>>;
    auto keys = [](Operator* op) {
      SMOOTHSCAN_CHECK(op->Open().ok());
      Pairs out;
      Pairs rows;
      TupleBatch batch;
      while (op->NextBatch(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const Tuple& t = batch.row(i);
          out.emplace_back(t[0].AsInt64(), t[2].AsInt64());
          rows.emplace_back(t[1].AsInt64(), t[3].AsInt64());
        }
      }
      std::sort(out.begin(), out.end());
      std::sort(rows.begin(), rows.end());
      return std::make_pair(out, rows);
    };
    const auto merged = keys(&merge);
    const auto hashed = keys(&hash);
    EXPECT_EQ(merged.first, hashed.first) << "trial " << trial;
    EXPECT_EQ(merged.second, hashed.second) << "trial " << trial;
    if (large) {
      EXPECT_GT(merged.first.size(), 2 * kDefaultBatchSize)
          << "trial " << trial;
    }
  }
}

TEST(MergeJoinTest, OrderedSmoothScanFeedsMergeJoinDirectly) {
  // The paper's Section IV-B composition: Smooth Scan with the Result Cache
  // preserves the index order, so a Merge Join can consume it with no sort.
  EngineOptions eo;
  eo.buffer_pool_pages = 128;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 500;  // Plenty of duplicate join keys.
  MicroBenchDb db(&engine, spec);

  const ScanPredicate pred = db.PredicateForSelectivity(0.3);
  SmoothScanOptions so;
  so.preserve_order = true;

  // Right side: a small sorted dimension keyed on the same domain.
  std::vector<int64_t> dim_keys;
  for (int64_t k = 0; k <= 150; k += 3) dim_keys.push_back(k);

  auto scan = std::make_unique<ScanOp>(
      std::make_unique<SmoothScan>(&db.index(), pred, so));
  MergeJoinOp join(&engine, std::move(scan), SortedInts(dim_keys),
                   MicroBenchDb::kIndexedColumn, 0);

  // Oracle: count matches by brute force.
  std::map<int64_t, int> dim_count;
  for (int64_t k : dim_keys) ++dim_count[k];
  uint64_t expected = 0;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (!pred.Matches(t)) return;
    auto it = dim_count.find(t[MicroBenchDb::kIndexedColumn].AsInt64());
    if (it != dim_count.end()) expected += it->second;
  });

  SMOOTHSCAN_CHECK(join.Open().ok());
  uint64_t got = 0;
  TupleBatch batch;
  while (join.NextBatch(&batch)) got += batch.size();
  EXPECT_EQ(got, expected);
  EXPECT_GT(got, 0u);
}

TEST(MergeJoinTest, SmoothFeedCheaperThanSortScanFeedAtHighSelectivity) {
  // Above the Sort Scan crossover, feeding the Merge Join from an ordered
  // Smooth Scan avoids the posterior key sort the Sort Scan must pay.
  EngineOptions eo;
  eo.buffer_pool_pages = 128;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 50000;
  MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.PredicateForSelectivity(0.5);

  auto run = [&](std::unique_ptr<AccessPath> path) {
    engine.ColdRestart();
    const IoStats before = engine.disk().stats();
    const double cpu_before = engine.cpu().time();
    auto scan = std::make_unique<ScanOp>(std::move(path));
    MergeJoinOp join(&engine, std::move(scan), SortedInts({1, 2, 3}),
                     MicroBenchDb::kIndexedColumn, 0);
    SMOOTHSCAN_CHECK(join.Open().ok());
    TupleBatch batch;
    while (join.NextBatch(&batch)) {
    }
    return (engine.disk().stats() - before).io_time + engine.cpu().time() -
           cpu_before;
  };

  SmoothScanOptions so;
  so.preserve_order = true;
  SortScanOptions sorted;
  sorted.preserve_order = true;
  const double smooth_cost =
      run(std::make_unique<SmoothScan>(&db.index(), pred, so));
  const double sort_cost =
      run(std::make_unique<SortScan>(&db.index(), pred, sorted));
  EXPECT_LT(smooth_cost, sort_cost);
}

}  // namespace
}  // namespace smoothscan
