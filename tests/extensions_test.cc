// Tests for the Section IV extensions: the morphing INLJ-to-hash join
// (Section IV-B), Result Cache spilling to overflow files (Section IV-A),
// and positional pre-trigger deduplication via the strict (key, TID) index
// order (Section IV-A's Tuple ID Cache alternative).

#include <gtest/gtest.h>

#include <set>

#include "access/result_cache.h"
#include "common/rng.h"
#include "access/smooth_scan.h"
#include "exec/morphing_index_join.h"
#include "exec/operators.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

// ---------- Morphing index join ----------

class MorphingJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions eo;
    eo.buffer_pool_pages = 64;
    engine_ = std::make_unique<Engine>(eo);
    // Inner table: 30000 rows keyed 0..9999 (3 matches per key), indexed.
    // Much larger than the buffer pool so repeated look-ups cost real I/O.
    inner_ = std::make_unique<HeapFile>(engine_.get(), "inner",
                                        MakeIntSchema(3));
    for (int i = 0; i < 30000; ++i) {
      SMOOTHSCAN_CHECK(inner_
                           ->Append({Value::Int64(i % 10000), Value::Int64(i),
                                     Value::Int64(i * 7)})
                           .ok());
    }
    index_ = std::make_unique<BPlusTree>(engine_.get(), "inner_idx",
                                         inner_.get(), 0);
    index_->BulkBuild();
  }

  /// Outer source of join keys.
  std::unique_ptr<Operator> Outer(std::vector<int64_t> keys) {
    std::vector<Tuple> rows;
    for (int64_t k : keys) rows.push_back({Value::Int64(k)});
    struct Src : Operator {
      explicit Src(std::vector<Tuple> r) : rows(std::move(r)) {}
      const char* name() const override { return "Src"; }
      Status OpenImpl() override {
        i = 0;
        return Status::OK();
      }
      bool NextBatchImpl(TupleBatch* out) override {
        while (i < rows.size() && !out->full()) out->Append(rows[i++]);
        return !out->empty();
      }
      std::vector<Tuple> rows;
      size_t i = 0;
    };
    return std::make_unique<Src>(std::move(rows));
  }

  /// Multiset of (outer key, inner row id) pairs from a drained join.
  static std::multiset<std::pair<int64_t, int64_t>> Pairs(Operator* op) {
    SMOOTHSCAN_CHECK(op->Open().ok());
    std::multiset<std::pair<int64_t, int64_t>> pairs;
    TupleBatch batch;
    while (op->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        pairs.emplace(batch.row(i)[0].AsInt64(), batch.row(i)[2].AsInt64());
      }
    }
    return pairs;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<HeapFile> inner_;
  std::unique_ptr<BPlusTree> index_;
};

TEST_F(MorphingJoinTest, MatchesPlainInljResults) {
  std::vector<int64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.UniformInt(0, 12000));

  MorphingIndexJoinOp morphing(Outer(keys), index_.get(), 0);
  MorphingIndexJoinOptions plain_options;
  plain_options.enable_harvesting = false;
  MorphingIndexJoinOp plain(Outer(keys), index_.get(), 0, plain_options);
  EXPECT_EQ(Pairs(&morphing), Pairs(&plain));
}

TEST_F(MorphingJoinTest, EveryMatchPerKeyReturned) {
  MorphingIndexJoinOp join(Outer({5, 5, 999}), index_.get(), 0);
  const auto pairs = Pairs(&join);
  // Key 5 probed twice (3 matches each) + key 999 once (3 matches).
  EXPECT_EQ(pairs.size(), 9u);
}

TEST_F(MorphingJoinTest, AbsentKeysProduceNothing) {
  MorphingIndexJoinOp join(Outer({50000, 60000}), index_.get(), 0);
  EXPECT_TRUE(Pairs(&join).empty());
}

TEST_F(MorphingJoinTest, RepeatedProbesHitCache) {
  std::vector<int64_t> keys(200, 42);  // Same key 200 times.
  MorphingIndexJoinOp join(Outer(keys), index_.get(), 0);
  Pairs(&join);
  const MorphingJoinStats& s = join.morph_stats();
  EXPECT_EQ(s.probes, 200u);
  EXPECT_EQ(s.index_descents, 1u);
  EXPECT_EQ(s.cache_hits, 199u);
}

TEST_F(MorphingJoinTest, MorphsTowardHashJoin) {
  // Dense probing: as pages get harvested, later keys complete without any
  // heap I/O — the INLJ morphs into a hash join.
  std::vector<int64_t> keys;
  for (int round = 0; round < 3; ++round) {
    for (int64_t k = 0; k < 1000; ++k) keys.push_back(k);
  }
  MorphingIndexJoinOp join(Outer(keys), index_.get(), 0);

  engine_->ColdRestart();
  const IoStats before = engine_->disk().stats();
  Pairs(&join);
  const IoStats d = engine_->disk().stats() - before;
  const MorphingJoinStats& s = join.morph_stats();
  // Heap pages read at most once each (plus index pages).
  EXPECT_LE(s.pages_harvested, inner_->num_pages());
  EXPECT_GE(s.cache_hits, 2000u);  // Rounds 2 and 3 are pure cache hits.
  EXPECT_LE(d.pages_read,
            inner_->num_pages() +
                engine_->storage().NumPages(index_->file_id()) * 3);
}

TEST_F(MorphingJoinTest, BeatsPlainInljOnRepeatedKeys) {
  std::vector<int64_t> keys;
  Rng rng(9);
  for (int i = 0; i < 3000; ++i) keys.push_back(rng.UniformInt(0, 9999));

  auto io_for = [&](bool harvest) {
    MorphingIndexJoinOptions o;
    o.enable_harvesting = harvest;
    MorphingIndexJoinOp join(Outer(keys), index_.get(), 0, o);
    engine_->ColdRestart();
    const IoStats before = engine_->disk().stats();
    Pairs(&join);
    return (engine_->disk().stats() - before).io_time;
  };
  const double morphing_io = io_for(true);
  const double plain_io = io_for(false);
  EXPECT_LT(morphing_io * 2, plain_io);
}

TEST_F(MorphingJoinTest, WorksInsideAPipeline) {
  auto join = std::make_unique<MorphingIndexJoinOp>(Outer({1, 2, 3}),
                                                    index_.get(), 0);
  Engine* engine = engine_.get();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr});
  HashAggregateOp agg(engine, std::move(join), {}, std::move(aggs));
  SMOOTHSCAN_CHECK(agg.Open().ok());
  TupleBatch batch;
  ASSERT_TRUE(agg.NextBatch(&batch));
  EXPECT_DOUBLE_EQ(batch.row(0)[0].AsDouble(), 9.0);  // 3 keys x 3 matches.
}

// ---------- Result Cache spilling ----------

class SpillTest : public ::testing::Test {
 protected:
  Engine engine_;
};

TEST_F(SpillTest, NoSpillUnderBudget) {
  ResultCacheOptions o;
  o.max_resident_tuples = 100;
  ResultCache cache({10, 20}, &engine_, o);
  for (int i = 0; i < 50; ++i) {
    cache.Insert(i % 30, Tid{0, static_cast<SlotId>(i)}, {Value::Int64(i)});
  }
  EXPECT_EQ(cache.spill_stats().spills, 0u);
  EXPECT_EQ(cache.resident_size(), cache.size());
}

TEST_F(SpillTest, SpillsFurthestPartitionOverBudget) {
  ResultCacheOptions o;
  o.max_resident_tuples = 10;
  ResultCache cache({100, 200}, &engine_, o);
  // Fill the far partition (keys >= 200) first, then exceed the budget from
  // the near partition: the far one must spill.
  for (int i = 0; i < 8; ++i) {
    cache.Insert(300 + i, Tid{1, static_cast<SlotId>(i)}, {Value::Int64(i)});
  }
  const double io_before = engine_.disk().stats().io_time;
  for (int i = 0; i < 8; ++i) {
    cache.Insert(i, Tid{0, static_cast<SlotId>(i)}, {Value::Int64(i)});
  }
  EXPECT_GE(cache.spill_stats().spills, 1u);
  EXPECT_EQ(cache.spill_stats().spilled_tuples, 8u);
  EXPECT_LE(cache.resident_size(), 10u);
  EXPECT_EQ(cache.size(), 16u);  // Nothing lost.
  EXPECT_GT(engine_.disk().stats().io_time, io_before);  // Write charged.
  EXPECT_GT(engine_.disk().stats().pages_written, 0u);
}

TEST_F(SpillTest, TakeRestoresSpilledPartition) {
  ResultCacheOptions o;
  o.max_resident_tuples = 4;
  ResultCache cache({100}, &engine_, o);
  for (int i = 0; i < 5; ++i) {
    cache.Insert(200 + i, Tid{1, static_cast<SlotId>(i)}, {Value::Int64(i)});
  }
  for (int i = 0; i < 5; ++i) {
    cache.Insert(i, Tid{0, static_cast<SlotId>(i)}, {Value::Int64(100 + i)});
  }
  ASSERT_GE(cache.spill_stats().spills, 1u);
  // Reaching the spilled range reads the overflow file back.
  const uint64_t reads_before = engine_.disk().stats().pages_read;
  std::optional<Tuple> t = cache.Take(203, Tid{1, 3});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ((*t)[0].AsInt64(), 3);
  EXPECT_GE(cache.spill_stats().restores, 1u);
  EXPECT_GT(engine_.disk().stats().pages_read, reads_before);
}

TEST_F(SpillTest, EvictBelowDropsSpilledPartitions) {
  ResultCacheOptions o;
  o.max_resident_tuples = 2;
  ResultCache cache({10, 20}, &engine_, o);
  cache.Insert(25, Tid{0, 0}, {Value::Int64(1)});
  cache.Insert(26, Tid{0, 1}, {Value::Int64(2)});
  cache.Insert(5, Tid{0, 2}, {Value::Int64(3)});
  cache.Insert(6, Tid{0, 3}, {Value::Int64(4)});
  EXPECT_EQ(cache.EvictBelow(30), 2u);  // Keys 5, 6 are dead.
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(SpillTest, SmoothScanCorrectUnderTinyCacheBudget) {
  EngineOptions eo;
  eo.buffer_pool_pages = 64;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  MicroBenchDb db(&engine, spec);
  const ScanPredicate pred = db.PredicateForSelectivity(0.1);

  std::multiset<int64_t> expected;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) expected.insert(t[0].AsInt64());
  });

  SmoothScanOptions so;
  so.preserve_order = true;
  so.result_cache_budget = 64;  // Far below the ~2000 cached results.
  SmoothScan scan(&db.index(), pred, so);
  engine.ColdRestart();
  ASSERT_TRUE(scan.Open().ok());
  std::multiset<int64_t> got;
  int64_t prev_key = INT64_MIN;
  TupleBatch batch;
  while (scan.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      EXPECT_GE(t[MicroBenchDb::kIndexedColumn].AsInt64(), prev_key);
      prev_key = t[MicroBenchDb::kIndexedColumn].AsInt64();
      got.insert(t[0].AsInt64());
    }
  }
  EXPECT_EQ(got, expected);
}

// ---------- Positional dedup ----------

class PositionalDedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions eo;
    eo.buffer_pool_pages = 64;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
  }

  std::multiset<int64_t> Run(const ScanPredicate& pred,
                             const SmoothScanOptions& options) {
    SmoothScan scan(&db_->index(), pred, options);
    engine_->ColdRestart();
    SMOOTHSCAN_CHECK(scan.Open().ok());
    std::multiset<int64_t> ids;
    TupleBatch batch;
    while (scan.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        ids.insert(batch.row(i)[0].AsInt64());
      }
    }
    return ids;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

TEST_F(PositionalDedupTest, SameResultsAsTupleIdCache) {
  for (const double sel : {0.005, 0.05, 0.5}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    SmoothScanOptions with_cache;
    with_cache.trigger = MorphTrigger::kOptimizerDriven;
    with_cache.optimizer_estimate = 30;
    SmoothScanOptions positional = with_cache;
    positional.positional_dedup = true;
    EXPECT_EQ(Run(pred, with_cache), Run(pred, positional)) << "sel " << sel;
  }
}

TEST_F(PositionalDedupTest, NoDuplicatesAcrossTriggerSeam) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  std::multiset<int64_t> expected;
  db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) expected.insert(t[0].AsInt64());
  });
  SmoothScanOptions o;
  o.trigger = MorphTrigger::kOptimizerDriven;
  o.optimizer_estimate = 100;
  o.positional_dedup = true;
  EXPECT_EQ(Run(pred, o), expected);
}

TEST_F(PositionalDedupTest, WorksWithResidualPredicates) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  pred.residual = [](const Tuple& t) { return t[3].AsInt64() % 2 == 0; };
  std::multiset<int64_t> expected;
  db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) expected.insert(t[0].AsInt64());
  });
  SmoothScanOptions o;
  o.trigger = MorphTrigger::kSlaDriven;
  o.sla_trigger_cardinality = 50;
  o.positional_dedup = true;
  EXPECT_EQ(Run(pred, o), expected);
}

TEST_F(PositionalDedupTest, OrderedModeAlsoCorrect) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  SmoothScanOptions o;
  o.trigger = MorphTrigger::kOptimizerDriven;
  o.optimizer_estimate = 40;
  o.positional_dedup = true;
  o.preserve_order = true;
  std::multiset<int64_t> expected;
  db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) expected.insert(t[0].AsInt64());
  });
  EXPECT_EQ(Run(pred, o), expected);
}

}  // namespace
}  // namespace smoothscan
