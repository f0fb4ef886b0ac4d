// BatchPool: a free-list of recycled TupleBatches whose row `Value` storage
// survives recycling — the morsel engine's answer to per-batch heap
// allocation (Leis et al., SIGMOD 2014 design away exactly this steady-state
// tax). Producers Acquire() a batch, fill it, and move it downstream as a
// PooledBatch; whoever drains it last releases it (possibly on a different
// thread), putting the fully-allocated row storage back on the free list for
// the next fill cycle. In steady state a scan therefore performs zero heap
// allocations per batch: the batch and its row vectors and Value payloads
// are the ones the previous cycle populated.
//
// Ownership: operators never build a pool, they borrow ctx().batch_pool.
// The Engine owns one ungoverned pool that every default context hands out,
// and QueryEngine::Execute builds one per read query, charged to the query's
// QueryMemoryScope (lint rule pool-owner).
//
// Memory governance: an optional QueryMemoryScope is charged a fixed
// per-batch estimate when a batch's storage goes warm and uncharged when it
// is shed. When the scope reports OverQuota() — the query breached its
// quota, or the global MemoryBroker is under pressure — Release() drops the
// batch's row storage instead of keeping it warm: recycling degrades
// gracefully to allocate-per-batch, trading CPU for memory, never failing
// the query and never touching its simulated cost.
//
// BatchPoolStats is the one copy of the pool's counts: the query adds its
// pool's stats to the registry's batchpool.* at completion
// (AddBatchPoolStats).

#ifndef SMOOTHSCAN_MEM_BATCH_POOL_H_
#define SMOOTHSCAN_MEM_BATCH_POOL_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "common/tuple_batch.h"
#include "mem/memory_broker.h"

namespace smoothscan {

namespace obs {
struct ObsContext;
}  // namespace obs

class BatchPool;

/// Move-only owning handle on a pooled batch; returns it to the pool on
/// destruction (or explicit Release()). Default-constructed handles are
/// empty and inert.
class PooledBatch {
 public:
  PooledBatch() = default;
  PooledBatch(const PooledBatch&) = delete;
  PooledBatch& operator=(const PooledBatch&) = delete;
  PooledBatch(PooledBatch&& other) noexcept { Swap(&other); }
  PooledBatch& operator=(PooledBatch&& other) noexcept {
    if (this != &other) {
      Release();
      Swap(&other);
    }
    return *this;
  }
  ~PooledBatch() { Release(); }

  explicit operator bool() const { return batch_ != nullptr; }
  TupleBatch* get() const { return batch_; }
  TupleBatch& operator*() const { return *batch_; }
  TupleBatch* operator->() const { return batch_; }

  /// Returns the batch to its pool now. Idempotent.
  void Release();

 private:
  friend class BatchPool;
  PooledBatch(BatchPool* pool, size_t slot, TupleBatch* batch)
      : pool_(pool), slot_(slot), batch_(batch) {}
  void Swap(PooledBatch* other) {
    std::swap(pool_, other->pool_);
    std::swap(slot_, other->slot_);
    std::swap(batch_, other->batch_);
  }

  BatchPool* pool_ = nullptr;
  size_t slot_ = 0;
  TupleBatch* batch_ = nullptr;
};

struct BatchPoolOptions {
  /// Capacity of every batch the pool hands out.
  size_t batch_capacity = kDefaultBatchSize;
};

struct BatchPoolStats {
  uint64_t acquires = 0;   ///< Batches handed out.
  uint64_t reuses = 0;     ///< ... of which came warm off the free list.
  uint64_t releases = 0;   ///< Batches returned.
  uint64_t sheds = 0;      ///< Returns that dropped storage (over quota).
  uint64_t fresh_batches = 0;  ///< Batches constructed, ever.
  /// Acquires that could NOT reuse warm storage — the steady-state metric:
  /// zero over a cycle means the cycle allocated no batch memory.
  uint64_t cold_acquires() const { return acquires - reuses; }
};

class BatchPool {
 public:
  /// `account` (optional, must outlive the pool) is charged for warm batch
  /// storage and consulted for shedding; see the file comment.
  explicit BatchPool(BatchPoolOptions options = BatchPoolOptions(),
                     QueryMemoryScope* account = nullptr);
  /// Destroys every batch ever created (all must have been released) and
  /// uncharges the account.
  ~BatchPool();

  BatchPool(const BatchPool&) = delete;
  BatchPool& operator=(const BatchPool&) = delete;

  /// Hands out an empty batch of `batch_capacity`, warm when the free list
  /// has one. Thread-safe.
  PooledBatch Acquire() EXCLUDES(mu_);

  size_t batch_capacity() const { return options_.batch_capacity; }
  /// The per-warm-batch charge (estimated from the capacity).
  uint64_t batch_bytes() const { return batch_bytes_; }
  BatchPoolStats stats() const EXCLUDES(mu_);

 private:
  friend class PooledBatch;

  struct Slot {
    explicit Slot(size_t capacity) : batch(capacity) {}
    TupleBatch batch;
    bool warm = false;     ///< Row storage populated (free-list entries only).
    bool charged = false;  ///< Currently charged to the account.
  };

  void Release(size_t slot_index) EXCLUDES(mu_);

  const BatchPoolOptions options_;
  QueryMemoryScope* const account_;
  uint64_t batch_bytes_ = 0;

  /// Ranked just above the broker: Release() charges/uncharges the account
  /// scope (which forwards into MemoryBroker::mu_) while holding this latch.
  mutable latch::Latch mu_{latch::LatchRank::kBatchPool, "BatchPool::mu_"};
  /// A deque, so handed-out batches keep their addresses as the pool grows.
  std::deque<Slot> slots_ GUARDED_BY(mu_);
  std::vector<size_t> free_ GUARDED_BY(mu_);
  BatchPoolStats stats_ GUARDED_BY(mu_);
};

/// Adds a settled pool's counts to the registry's batchpool.* (null-safe).
void AddBatchPoolStats(const obs::ObsContext* o, const BatchPoolStats& stats);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_MEM_BATCH_POOL_H_
