// Unit tests of the memory subsystem (src/mem/): the recycled-TupleBatch
// BatchPool (warm reuse, stable batch addresses, quota shedding), the
// MemoryBroker's class accounting and pressure signal, and the per-query
// QueryMemoryScope.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/batch_pool.h"
#include "mem/memory_broker.h"

namespace smoothscan {
namespace {

// ------------------------------------------------------------- BatchPool

TEST(BatchPoolTest, RecyclesWarmBatches) {
  BatchPool pool(BatchPoolOptions{});
  {
    PooledBatch b = pool.Acquire();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->capacity(), kDefaultBatchSize);
    *b->AppendSlot() = Tuple{Value::Int64(1)};
  }  // Released by the handle's destructor.
  TupleBatch* first = nullptr;
  {
    PooledBatch b = pool.Acquire();
    first = b.get();
    EXPECT_TRUE(b->empty());  // Released clean.
  }
  {
    PooledBatch b = pool.Acquire();
    EXPECT_EQ(b.get(), first);  // Same header, recycled.
  }
  const BatchPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 3u);
  EXPECT_EQ(stats.fresh_batches, 1u);
  EXPECT_EQ(stats.reuses, 2u);
  EXPECT_EQ(stats.cold_acquires(), 1u);
  EXPECT_EQ(stats.sheds, 0u);
}

TEST(BatchPoolTest, ValueStorageSurvivesRecycling) {
  BatchPoolOptions options;
  options.batch_capacity = 8;
  BatchPool pool(options);
  {
    PooledBatch b = pool.Acquire();
    for (int i = 0; i < 8; ++i) {
      *b->AppendSlot() = Tuple{Value::Int64(i), Value::Int64(i * 2)};
    }
  }
  PooledBatch b = pool.Acquire();
  // AppendSlot hands back the recycled slot with its Value storage intact —
  // the zero-allocation decode contract.
  Tuple* slot = b->AppendSlot();
  EXPECT_EQ(slot->size(), 2u);
}

TEST(BatchPoolTest, ConcurrentHandlesGetDistinctBatches) {
  BatchPool pool(BatchPoolOptions{});
  PooledBatch a = pool.Acquire();
  PooledBatch b = pool.Acquire();
  EXPECT_NE(a.get(), b.get());
  a.Release();
  b.Release();
  EXPECT_EQ(pool.stats().fresh_batches, 2u);
}

TEST(BatchPoolTest, HandedOutBatchesKeepTheirAddressesAsThePoolGrows) {
  BatchPool pool(BatchPoolOptions{});
  // The handle holds the batch's address; growing the pool must not move
  // the batch under it (a sanitizer build reports the stale read if it did).
  PooledBatch first = pool.Acquire();
  *first->AppendSlot() = Tuple{Value::Int64(42)};
  std::vector<PooledBatch> more;
  for (int i = 0; i < 100; ++i) more.push_back(pool.Acquire());
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ(first->row(0)[0].AsInt64(), 42);
  EXPECT_EQ(pool.stats().fresh_batches, 101u);
}

TEST(BatchPoolTest, ChargesAccountAndShedsOverQuota) {
  QueryMemoryScope scope(nullptr, /*quota_bytes=*/1);  // Any charge breaches.
  BatchPool pool(BatchPoolOptions{}, &scope);
  { PooledBatch b = pool.Acquire(); }
  // Release found the scope over quota (first release charged then shed, or
  // shed outright) — either way the pool must not retain storage forever.
  { PooledBatch b = pool.Acquire(); }
  const BatchPoolStats stats = pool.stats();
  EXPECT_GT(stats.sheds, 0u);
  EXPECT_GT(scope.quota_breaches(), 0u);
}

TEST(BatchPoolTest, UnchargesOnDestruction) {
  QueryMemoryScope scope;
  {
    BatchPool pool(BatchPoolOptions{}, &scope);
    { PooledBatch b = pool.Acquire(); }
    EXPECT_GT(scope.bytes(), 0u);  // One warm batch charged.
  }
  EXPECT_EQ(scope.bytes(), 0u);
}

// ---------------------------------------------------------- MemoryBroker

TEST(MemoryBrokerTest, TracksClassesAndTotal) {
  MemoryBroker broker;
  MemoryBroker::Consumer pool =
      broker.Register(MemoryClass::kBufferPool, "pool");
  MemoryBroker::Consumer cache =
      broker.Register(MemoryClass::kResultCache, "cache");
  pool.Charge(1000);
  cache.Charge(500);
  EXPECT_EQ(broker.total_bytes(), 1500u);
  EXPECT_EQ(broker.class_bytes(MemoryClass::kBufferPool), 1000u);
  EXPECT_EQ(broker.class_bytes(MemoryClass::kResultCache), 500u);
  cache.Uncharge(200);
  EXPECT_EQ(broker.total_bytes(), 1300u);
  EXPECT_EQ(cache.bytes(), 300u);

  const auto snaps = broker.ConsumerSnapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[1].name, "cache");
  EXPECT_EQ(snaps[1].peak_bytes, 500u);
}

TEST(MemoryBrokerTest, PressureFlagAndEpoch) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 1000;
  MemoryBroker broker(options);
  MemoryBroker::Consumer c = broker.Register(MemoryClass::kOther, "c");
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(1000);
  EXPECT_FALSE(broker.UnderPressure());  // At budget, not past it.
  EXPECT_EQ(broker.pressure_epoch(), 0u);
  c.Charge(1);
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  c.Uncharge(500);
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(600);  // Crosses again.
  EXPECT_EQ(broker.pressure_epoch(), 2u);
  EXPECT_EQ(broker.peak_total_bytes(), 1101u);
}

TEST(MemoryBrokerTest, PressureHysteresis) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 1000;
  options.pressure_low_water_bytes = 600;
  MemoryBroker broker(options);
  EXPECT_EQ(broker.pressure_low_water(), 600u);
  MemoryBroker::Consumer c = broker.Register(MemoryClass::kOther, "c");
  c.Charge(1001);
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  // Dipping below budget but above the low water keeps the flag raised —
  // this is the damping that stops spill/restore ping-pong at the boundary.
  c.Uncharge(300);  // Total 701.
  EXPECT_TRUE(broker.UnderPressure());
  c.Charge(200);  // Total 901: re-crossing nothing, same episode.
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 1u);
  c.Uncharge(301);  // Total 600: at the low water, the episode ends.
  EXPECT_FALSE(broker.UnderPressure());
  c.Charge(401);  // Total 1001: a fresh episode, new epoch.
  EXPECT_TRUE(broker.UnderPressure());
  EXPECT_EQ(broker.pressure_epoch(), 2u);
}

TEST(MemoryBrokerTest, PressureClearsOnUnregister) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 1000;
  MemoryBroker broker(options);
  // Default low water derives as budget - budget / 8.
  EXPECT_EQ(broker.pressure_low_water(), 875u);
  {
    MemoryBroker::Consumer c = broker.Register(MemoryClass::kOther, "c");
    c.Charge(1500);
    EXPECT_TRUE(broker.UnderPressure());
  }
  // The consumer's teardown returned every byte: pressure must not stick.
  EXPECT_FALSE(broker.UnderPressure());
}

TEST(MemoryBrokerTest, UnregisterReturnsBytes) {
  MemoryBroker broker;
  {
    MemoryBroker::Consumer c = broker.Register(MemoryClass::kOther, "c");
    c.Charge(4096);
    EXPECT_EQ(broker.total_bytes(), 4096u);
  }
  EXPECT_EQ(broker.total_bytes(), 0u);
  // Ids recycle without mixing accounts.
  MemoryBroker::Consumer d = broker.Register(MemoryClass::kOther, "d");
  EXPECT_EQ(d.bytes(), 0u);
  d.Charge(1);
  EXPECT_EQ(broker.total_bytes(), 1u);
}

TEST(MemoryBrokerTest, MemoryClassNames) {
  EXPECT_STREQ(MemoryClassName(MemoryClass::kBufferPool), "buffer_pool");
  EXPECT_STREQ(MemoryClassName(MemoryClass::kExecBatches), "exec_batches");
}

// ------------------------------------------------------ QueryMemoryScope

TEST(QueryMemoryScopeTest, CountsQuotaBreaches) {
  QueryMemoryScope scope(nullptr, /*quota_bytes=*/100);
  scope.Charge(60);
  EXPECT_FALSE(scope.OverQuota());
  EXPECT_EQ(scope.quota_breaches(), 0u);
  scope.Charge(60);
  EXPECT_TRUE(scope.OverQuota());
  EXPECT_EQ(scope.quota_breaches(), 1u);
  scope.Uncharge(60);
  EXPECT_FALSE(scope.OverQuota());
  EXPECT_EQ(scope.peak_bytes(), 120u);
}

TEST(QueryMemoryScopeTest, BrokerPressurePropagatesToOverQuota) {
  MemoryBrokerOptions options;
  options.global_budget_bytes = 100;
  MemoryBroker broker(options);
  MemoryBroker::Consumer other = broker.Register(MemoryClass::kOther, "hog");
  QueryMemoryScope scope(&broker, /*quota_bytes=*/UINT64_MAX);
  scope.Charge(10);
  EXPECT_FALSE(scope.OverQuota());
  other.Charge(200);  // Someone else exhausts the global budget.
  EXPECT_TRUE(scope.OverQuota());  // The scope sheds on the hog's behalf.
  other.Uncharge(200);
  EXPECT_FALSE(scope.OverQuota());
  // The scope's own charge flowed into the broker's kExecBatches class.
  EXPECT_EQ(broker.class_bytes(MemoryClass::kExecBatches), 10u);
  scope.Uncharge(10);
}

}  // namespace
}  // namespace smoothscan
