// Executor tests: filter, sort, hash join, index nested-loops join, hash
// aggregation — unit behaviour plus composition.

#include <gtest/gtest.h>

#include <memory>

#include "access/full_scan.h"
#include "exec/operators.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

/// Simple in-memory source for operator unit tests.
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

std::unique_ptr<Operator> Ints(std::vector<int64_t> xs) {
  std::vector<Tuple> rows;
  for (int64_t x : xs) rows.push_back({Value::Int64(x)});
  return std::make_unique<VectorSource>(std::move(rows));
}

std::vector<Tuple> RunAll(Operator* op) {
  SMOOTHSCAN_CHECK(op->Open().ok());
  std::vector<Tuple> out;
  Drain(op, &out);
  op->Close();
  return out;
}

TEST(FilterOpTest, KeepsMatching) {
  Engine engine;
  FilterOp op(&engine, Ints({1, 2, 3, 4, 5}),
              [](const Tuple& t) { return t[0].AsInt64() % 2 == 1; });
  const auto rows = RunAll(&op);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[2][0].AsInt64(), 5);
}

TEST(FilterOpTest, EmptyInput) {
  Engine engine;
  FilterOp op(&engine, Ints({}), [](const Tuple&) { return true; });
  EXPECT_TRUE(RunAll(&op).empty());
}

TEST(SortOpTest, SortsByComparator) {
  Engine engine;
  SortOp op(&engine, Ints({3, 1, 2}), [](const Tuple& a, const Tuple& b) {
    return a[0].AsInt64() < b[0].AsInt64();
  });
  const auto rows = RunAll(&op);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
  EXPECT_EQ(rows[2][0].AsInt64(), 3);
}

TEST(SortOpTest, ChargesCpu) {
  Engine engine;
  std::vector<int64_t> xs(1000);
  for (size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<int64_t>(i * 7 % 997);
  SortOp op(&engine, Ints(xs), [](const Tuple& a, const Tuple& b) {
    return a[0].AsInt64() < b[0].AsInt64();
  });
  const double before = engine.cpu().time();
  RunAll(&op);
  EXPECT_GT(engine.cpu().time(), before);
}

TEST(HashJoinOpTest, InnerJoinSemantics) {
  Engine engine;
  std::vector<Tuple> left = {{Value::Int64(1), Value::String("l1")},
                             {Value::Int64(2), Value::String("l2")},
                             {Value::Int64(3), Value::String("l3")}};
  std::vector<Tuple> right = {{Value::Int64(2), Value::String("r2")},
                              {Value::Int64(3), Value::String("r3")},
                              {Value::Int64(3), Value::String("r3b")},
                              {Value::Int64(4), Value::String("r4")}};
  HashJoinOp op(&engine, std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), 0, 0);
  const auto rows = RunAll(&op);
  // 1 match for key 2, 2 matches for key 3.
  ASSERT_EQ(rows.size(), 3u);
  for (const Tuple& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0].AsInt64(), r[2].AsInt64());  // Join keys equal.
  }
}

TEST(HashJoinOpTest, NoMatches) {
  Engine engine;
  HashJoinOp op(&engine, Ints({1, 2}), Ints({3, 4}), 0, 0);
  EXPECT_TRUE(RunAll(&op).empty());
}

TEST(HashAggregateOpTest, GlobalAggregates) {
  Engine engine;
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return static_cast<double>(t[0].AsInt64());
                  }});
  aggs.push_back({AggFn::kCount, nullptr});
  aggs.push_back({AggFn::kMin, [](const Tuple& t) {
                    return static_cast<double>(t[0].AsInt64());
                  }});
  aggs.push_back({AggFn::kMax, [](const Tuple& t) {
                    return static_cast<double>(t[0].AsInt64());
                  }});
  aggs.push_back({AggFn::kAvg, [](const Tuple& t) {
                    return static_cast<double>(t[0].AsInt64());
                  }});
  HashAggregateOp op(&engine, Ints({1, 2, 3, 4}), {}, std::move(aggs));
  const auto rows = RunAll(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 2.5);
}

TEST(HashAggregateOpTest, GlobalAggregateOnEmptyInputProducesOneRow) {
  Engine engine;
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr});
  HashAggregateOp op(&engine, Ints({}), {}, std::move(aggs));
  const auto rows = RunAll(&op);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 0.0);
}

TEST(HashAggregateOpTest, GroupBy) {
  Engine engine;
  std::vector<Tuple> rows = {{Value::String("a"), Value::Int64(1)},
                             {Value::String("b"), Value::Int64(2)},
                             {Value::String("a"), Value::Int64(3)}};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, [](const Tuple& t) {
                    return static_cast<double>(t[1].AsInt64());
                  }});
  HashAggregateOp op(&engine, std::make_unique<VectorSource>(rows), {0},
                     std::move(aggs));
  auto out = RunAll(&op);
  ASSERT_EQ(out.size(), 2u);
  double sum_a = 0, sum_b = 0;
  for (const Tuple& r : out) {
    if (r[0].AsString() == "a") sum_a = r[1].AsDouble();
    if (r[0].AsString() == "b") sum_b = r[1].AsDouble();
  }
  EXPECT_DOUBLE_EQ(sum_a, 4.0);
  EXPECT_DOUBLE_EQ(sum_b, 2.0);
}

TEST(HashAggregateOpTest, GroupByOnlyProducesDistinct) {
  Engine engine;
  HashAggregateOp op(&engine, Ints({1, 1, 2, 2, 2, 3}), {0}, {});
  EXPECT_EQ(RunAll(&op).size(), 3u);
}

// Groups are keyed on the typed Values: two doubles that print alike under
// a "%.6g" rendering are still two groups.
TEST(HashAggregateOpTest, NearbyDoublesAreDistinctGroups) {
  Engine engine;
  std::vector<Tuple> rows = {{Value::Double(1.0)},
                             {Value::Double(1.0000001)},
                             {Value::Double(1.0)}};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr});
  HashAggregateOp op(&engine, std::make_unique<VectorSource>(rows), {0},
                     std::move(aggs));
  const auto out = RunAll(&op);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(out[0][1].AsDouble(), 2.0);
  EXPECT_EQ(out[1][0].AsDouble(), 1.0000001);
  EXPECT_DOUBLE_EQ(out[1][1].AsDouble(), 1.0);
}

// A multi-column string key is not a joined string: ("a\x1fb", "c") and
// ("a", "b\x1fc") concatenate alike around a '\x1f' separator.
TEST(HashAggregateOpTest, SeparatorInStringKeysDoesNotMergeGroups) {
  Engine engine;
  std::vector<Tuple> rows = {{Value::String("a\x1f" "b"), Value::String("c")},
                             {Value::String("a"), Value::String("b\x1f" "c")}};
  HashAggregateOp op(&engine, std::make_unique<VectorSource>(rows), {0, 1},
                     {});
  const auto out = RunAll(&op);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].AsString(), "a\x1f" "b");
  EXPECT_EQ(out[1][1].AsString(), "b\x1f" "c");
}

TEST(HashAggregateOpTest, GroupsAreEmittedInFirstSeenOrder) {
  Engine engine;
  std::vector<Tuple> rows;
  const std::vector<int64_t> keys = {7, 3, 7, 9, 1, 3, 9, 5, 1};
  for (const int64_t k : keys) {
    rows.push_back({Value::String("k" + std::to_string(k)), Value::Int64(k)});
  }
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr});
  HashAggregateOp op(&engine, std::make_unique<VectorSource>(rows), {1, 0},
                     std::move(aggs));
  const auto out = RunAll(&op);
  const std::vector<int64_t> first_seen = {7, 3, 9, 1, 5};
  ASSERT_EQ(out.size(), first_seen.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i][0].AsInt64(), first_seen[i]);
    EXPECT_EQ(out[i][1].AsString(), "k" + std::to_string(first_seen[i]));
    EXPECT_DOUBLE_EQ(out[i][2].AsDouble(), first_seen[i] == 5 ? 1.0 : 2.0);
  }
}

TEST(IndexNLJoinTest, JoinsViaIndexLookups) {
  Engine engine;
  // Inner: keyed heap with an index; outer: a vector of keys.
  HeapFile inner(&engine, "inner", MakeIntSchema(2));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(inner.Append({Value::Int64(i), Value::Int64(i * 10)}).ok());
  }
  BPlusTree index(&engine, "inner_idx", &inner, 0);
  index.BulkBuild();

  IndexNestedLoopJoinOp op(Ints({5, 50, 200}), &index, 0);
  const auto rows = RunAll(&op);
  ASSERT_EQ(rows.size(), 2u);  // Key 200 has no match.
  EXPECT_EQ(rows[0][0].AsInt64(), 5);
  EXPECT_EQ(rows[0][2].AsInt64(), 50);   // inner.c2 = key * 10.
  EXPECT_EQ(rows[1][2].AsInt64(), 500);
}

TEST(IndexNLJoinTest, MultipleMatchesPerKey) {
  Engine engine;
  HeapFile inner(&engine, "inner", MakeIntSchema(2));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(inner.Append({Value::Int64(i % 3), Value::Int64(i)}).ok());
  }
  BPlusTree index(&engine, "inner_idx", &inner, 0);
  index.BulkBuild();
  IndexNestedLoopJoinOp op(Ints({1}), &index, 0);
  EXPECT_EQ(RunAll(&op).size(), 10u);
}

TEST(PipelineTest, ScanFilterAggregateComposition) {
  EngineOptions eo;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 5000;
  MicroBenchDb db(&engine, spec);

  auto scan = std::make_unique<ScanOp>(std::make_unique<FullScan>(
      &db.heap(), db.PredicateForSelectivity(0.5)));
  auto filter = std::make_unique<FilterOp>(
      &engine, std::move(scan),
      [](const Tuple& t) { return t[2].AsInt64() < 50000; });
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr});
  HashAggregateOp agg(&engine, std::move(filter), {}, std::move(aggs));

  // Oracle.
  uint64_t expected = 0;
  const ScanPredicate pred = db.PredicateForSelectivity(0.5);
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    expected += pred.Matches(t) && t[2].AsInt64() < 50000;
  });

  const auto rows = RunAll(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), static_cast<double>(expected));
}

}  // namespace
}  // namespace smoothscan
