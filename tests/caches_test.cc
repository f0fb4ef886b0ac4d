// Unit tests for Smooth Scan's auxiliary structures: Page ID Cache, Tuple ID
// Cache and the key-range-partitioned Result Cache, including its spilling to
// overflow files (Section IV-A).

#include <gtest/gtest.h>

#include <set>

#include "access/page_id_cache.h"
#include "access/result_cache.h"
#include "access/smooth_scan.h"
#include "access/tuple_id_cache.h"
#include "workload/micro_bench.h"
#include "write/table_version.h"

namespace smoothscan {
namespace {

TEST(PageIdCacheTest, MarkAndCheck) {
  PageIdCache cache(100);
  EXPECT_FALSE(cache.IsMarked(5));
  cache.Mark(5);
  EXPECT_TRUE(cache.IsMarked(5));
  EXPECT_FALSE(cache.IsMarked(4));
  EXPECT_FALSE(cache.IsMarked(6));
}

TEST(PageIdCacheTest, DoubleMarkCountsOnce) {
  PageIdCache cache(10);
  EXPECT_TRUE(cache.Mark(3));
  EXPECT_FALSE(cache.Mark(3));
  EXPECT_TRUE(cache.IsMarked(3));
}

TEST(PageIdCacheTest, SizeBytesIsBitmapSized) {
  // One bit per page: 1 M pages = 128 KB (the paper quotes 140 KB for a
  // 1 M-page LINEITEM; the delta is header overhead in their implementation).
  PageIdCache cache(1000000);
  EXPECT_EQ(cache.SizeBytes(), 125000u);
}

TEST(PageIdCacheTest, IndependentBits) {
  PageIdCache cache(64);
  for (PageId p = 0; p < 64; p += 2) cache.Mark(p);
  for (PageId p = 0; p < 64; ++p) {
    EXPECT_EQ(cache.IsMarked(p), p % 2 == 0);
  }
}

TEST(TupleIdCacheTest, InsertAndContains) {
  TupleIdCache cache;
  const Tid a{10, 3};
  const Tid b{10, 4};
  cache.Insert(a);
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TupleIdCacheTest, DistinguishesPagesAndSlots) {
  TupleIdCache cache;
  cache.Insert(Tid{1, 2});
  EXPECT_FALSE(cache.Contains(Tid{2, 1}));
  EXPECT_FALSE(cache.Contains(Tid{1, 3}));
  EXPECT_TRUE(cache.Contains(Tid{1, 2}));
}

TEST(TupleIdCacheTest, EmptyCacheContainsNothing) {
  TupleIdCache cache;
  EXPECT_FALSE(cache.Contains(Tid{0, 0}));
  EXPECT_FALSE(cache.Contains(Tid{7, 9}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TupleIdCacheTest, DuplicateInsertsCountOnce) {
  TupleIdCache cache;
  for (int i = 0; i < 5; ++i) cache.Insert(Tid{3, 1});
  cache.Insert(Tid{3, 2});
  cache.Insert(Tid{3, 1});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(Tid{3, 1}));
  EXPECT_TRUE(cache.Contains(Tid{3, 2}));
}

TEST(TupleIdCacheTest, TidsDifferingOnlyInPageOrOnlyInSlot) {
  TupleIdCache cache;
  // Same slot on many pages, and many slots on one page, including the
  // extremes of both fields.
  for (PageId p = 0; p < 300; ++p) cache.Insert(Tid{p, 5});
  for (uint16_t s = 0; s < 300; ++s) cache.Insert(Tid{1000, s});
  cache.Insert(Tid{0xFFFFFFFFu, 0xFFFF});
  cache.Insert(Tid{0, 0xFFFF});
  EXPECT_EQ(cache.size(), 602u);
  for (PageId p = 0; p < 300; ++p) {
    EXPECT_TRUE(cache.Contains(Tid{p, 5}));
    EXPECT_FALSE(cache.Contains(Tid{p, 6}));
  }
  for (uint16_t s = 0; s < 300; ++s) {
    EXPECT_TRUE(cache.Contains(Tid{1000, s}));
    EXPECT_FALSE(cache.Contains(Tid{1001, s}));
  }
  EXPECT_TRUE(cache.Contains(Tid{0xFFFFFFFFu, 0xFFFF}));
  EXPECT_FALSE(cache.Contains(Tid{0xFFFFFFFFu, 0xFFFE}));
  EXPECT_TRUE(cache.Contains(Tid{0, 0xFFFF}));
  EXPECT_FALSE(cache.Contains(Tid{1, 0xFFFF}));
}

TEST(TupleIdCacheTest, GrowsThroughManyResizes) {
  // 300k TIDs in the index order of a 60-tuple-per-page heap: the slot
  // array doubles a dozen times on the way and keeps every member.
  TupleIdCache cache;
  constexpr uint32_t kTids = 300000;
  for (uint32_t i = 0; i < kTids; ++i) {
    cache.Insert(Tid{i / 60, static_cast<uint16_t>(i % 60)});
  }
  EXPECT_EQ(cache.size(), kTids);
  for (uint32_t i = 0; i < kTids; ++i) {
    ASSERT_TRUE(cache.Contains(Tid{i / 60, static_cast<uint16_t>(i % 60)}))
        << i;
  }
  // Just past the inserted range: absent.
  for (uint16_t s = 0; s < 60; ++s) {
    EXPECT_FALSE(cache.Contains(Tid{kTids / 60, s}));
  }
  EXPECT_FALSE(cache.Contains(Tid{0, 60}));
}

TEST(TupleIdCacheTest, ReusableAfterClear) {
  TupleIdCache cache;
  for (uint16_t s = 0; s < 1000; ++s) cache.Insert(Tid{1, s});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  for (uint16_t s = 0; s < 1000; ++s) {
    ASSERT_FALSE(cache.Contains(Tid{1, s}));
  }
  for (uint16_t s = 0; s < 500; ++s) cache.Insert(Tid{2, s});
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_TRUE(cache.Contains(Tid{2, 499}));
  EXPECT_FALSE(cache.Contains(Tid{1, 0}));
  EXPECT_FALSE(cache.Contains(Tid{2, 500}));
}

TEST(ResultCacheTest, InsertTakeRoundTrip) {
  ResultCache cache({});
  cache.Insert(5, Tid{1, 0}, {Value::Int64(42)});
  EXPECT_EQ(cache.size(), 1u);
  std::optional<Tuple> t = cache.Take(5, Tid{1, 0});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ((*t)[0].AsInt64(), 42);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, TakeIsDestructive) {
  ResultCache cache({});
  cache.Insert(5, Tid{1, 0}, {Value::Int64(42)});
  EXPECT_TRUE(cache.Take(5, Tid{1, 0}).has_value());
  EXPECT_FALSE(cache.Take(5, Tid{1, 0}).has_value());
}

TEST(ResultCacheTest, MissOnUnknownTid) {
  ResultCache cache({});
  cache.Insert(5, Tid{1, 0}, {Value::Int64(42)});
  EXPECT_FALSE(cache.Take(5, Tid{1, 1}).has_value());
}

TEST(ResultCacheTest, PartitionsByKeyRange) {
  ResultCache cache({10, 20});
  cache.Insert(5, Tid{0, 0}, {Value::Int64(1)});    // Partition 0: keys < 10.
  cache.Insert(15, Tid{0, 1}, {Value::Int64(2)});   // Partition 1: [10, 20).
  cache.Insert(25, Tid{0, 2}, {Value::Int64(3)});   // Partition 2: >= 20.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.Take(15, Tid{0, 1}).has_value());
}

TEST(ResultCacheTest, EvictBelowDropsDeadPartitions) {
  ResultCache cache({10, 20});
  cache.Insert(5, Tid{0, 0}, {Value::Int64(1)});
  cache.Insert(15, Tid{0, 1}, {Value::Int64(2)});
  cache.Insert(25, Tid{0, 2}, {Value::Int64(3)});
  // Cursor reached key 20: partitions for keys < 20 are dead.
  EXPECT_EQ(cache.EvictBelow(20), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Take(5, Tid{0, 0}).has_value());
  EXPECT_TRUE(cache.Take(25, Tid{0, 2}).has_value());
}

TEST(ResultCacheTest, EvictBelowBoundaryKeepsOwnPartition) {
  ResultCache cache({10});
  cache.Insert(10, Tid{0, 0}, {Value::Int64(1)});
  // Cursor at 10: partition [10, inf) is live, partition (-inf, 10) is dead.
  EXPECT_EQ(cache.EvictBelow(10), 0u);
  EXPECT_TRUE(cache.Take(10, Tid{0, 0}).has_value());
}

TEST(ResultCacheTest, MaxSizeTracksHighWater) {
  ResultCache cache({});
  for (int i = 0; i < 10; ++i) {
    cache.Insert(i, Tid{0, static_cast<SlotId>(i)}, {Value::Int64(i)});
  }
  for (int i = 0; i < 5; ++i) {
    cache.Take(i, Tid{0, static_cast<SlotId>(i)});
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.max_size(), 10u);
  EXPECT_EQ(cache.inserts(), 10u);
}

TEST(ResultCacheTest, ClearDropsContentKeepsCounters) {
  ResultCache cache({10, 20});
  cache.Insert(5, Tid{0, 0}, {Value::Int64(1)});
  cache.Insert(15, Tid{0, 1}, {Value::Int64(2)});
  EXPECT_EQ(cache.EvictBelow(10), 1u);  // Advance the live-partition cursor.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_size(), 0u);
  EXPECT_FALSE(cache.Take(15, Tid{0, 1}).has_value());
  // Cleared, not reset: cumulative counters survive ...
  EXPECT_EQ(cache.inserts(), 2u);
  EXPECT_EQ(cache.max_size(), 2u);
  // ... and the partition cursor rewound, so low keys are insertable again.
  cache.Insert(5, Tid{0, 0}, {Value::Int64(1)});
  EXPECT_TRUE(cache.Take(5, Tid{0, 0}).has_value());
}

TEST(ResultCacheTest, PublishInvalidationClearsAttachedTableOnly) {
  // Tuples cached from a snapshot are stale once that table publishes: the
  // registry's publish-hook fan-out must Clear() the attached cache — and
  // only for its own table.
  Engine engine((EngineOptions()));
  HeapFile heap(&engine, "cached_table", MakeIntSchema(2));
  HeapFile other(&engine, "other_table", MakeIntSchema(2));
  SMOOTHSCAN_CHECK(heap.Append({Value::Int64(1), Value::Int64(2)}).ok());
  SMOOTHSCAN_CHECK(other.Append({Value::Int64(3), Value::Int64(4)}).ok());
  TableVersionRegistry registry(&engine);

  ResultCache cache({});
  cache.AttachInvalidation(&registry, heap.file_id());
  cache.Insert(5, Tid{0, 0}, {Value::Int64(42)});

  // A publish of an unrelated table leaves the cache intact.
  registry.BeginWrite(other.file_id(), &other).Release();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);

  // A publish of the attached table clears it.
  registry.BeginWrite(heap.file_id(), &heap).Release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_FALSE(cache.Take(5, Tid{0, 0}).has_value());

  // Detach-on-destruction: a cache dying before the registry must not leave
  // a dangling hook behind for the next publish to call.
  {
    ResultCache doomed({});
    doomed.AttachInvalidation(&registry, heap.file_id());
  }
  registry.BeginWrite(heap.file_id(), &heap).Release();
  EXPECT_EQ(cache.invalidations(), 2u);  // Survivor still wired.
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

}  // namespace
}  // namespace smoothscan
