// Unit tests for Smooth Scan's auxiliary structures: Page ID Cache, Tuple ID
// Cache and the key-range-partitioned Result Cache.

#include <gtest/gtest.h>

#include "access/page_id_cache.h"
#include "access/result_cache.h"
#include "access/tuple_id_cache.h"
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

}  // namespace
}  // namespace smoothscan
