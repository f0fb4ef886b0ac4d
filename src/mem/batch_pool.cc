#include "mem/batch_pool.h"

#include "obs/obs_context.h"
#include "storage/schema.h"

namespace smoothscan {

namespace {

/// Conservative per-row footprint estimate for a warm batch's charge: the
/// Tuple vector header plus a nominal ten-column Value payload (the
/// micro-benchmark schema). An estimate, not a measurement — governance
/// needs a stable, cheap number, not per-vector bookkeeping.
uint64_t DefaultBatchBytes(size_t capacity) {
  const uint64_t per_row = sizeof(Tuple) + 10 * sizeof(Value);
  return capacity * per_row;
}

}  // namespace

BatchPool::BatchPool(BatchPoolOptions options, MemoryAccount* account)
    : options_(options),
      account_(account),
      batch_bytes_(DefaultBatchBytes(options.batch_capacity)) {
  SMOOTHSCAN_CHECK(options_.batch_capacity > 0);
}

BatchPool::~BatchPool() {
  latch::LatchGuard lock(mu_);
  // Every batch must be back home; a PooledBatch outliving its pool would
  // release into freed state.
  SMOOTHSCAN_CHECK(free_.size() == slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.charged) account_->Uncharge(batch_bytes_);
  }
}

PooledBatch BatchPool::Acquire() {
  latch::LatchGuard lock(mu_);
  ++stats_.acquires;
  if (!free_.empty()) {
    const size_t index = free_.back();
    free_.pop_back();
    Slot& slot = slots_[index];
    if (slot.warm) ++stats_.reuses;
    slot.warm = false;
    return PooledBatch(this, index, &slot.batch);
  }
  slots_.emplace_back(options_.batch_capacity);
  ++stats_.fresh_batches;
  return PooledBatch(this, slots_.size() - 1, &slots_.back().batch);
}

void BatchPool::Release(size_t slot_index) {
  latch::LatchGuard lock(mu_);
  ++stats_.releases;
  Slot& slot = slots_[slot_index];
  slot.batch.Clear();
  if (account_ != nullptr && account_->OverQuota()) {
    slot.batch.ReleaseMemory();
    slot.warm = false;
    ++stats_.sheds;
    if (slot.charged) account_->Uncharge(batch_bytes_);
    slot.charged = false;
  } else {
    slot.warm = true;
    if (account_ != nullptr && !slot.charged) {
      account_->Charge(batch_bytes_);
      slot.charged = true;
    }
  }
  free_.push_back(slot_index);
}

BatchPoolStats BatchPool::stats() const {
  latch::LatchGuard lock(mu_);
  return stats_;
}

void AddBatchPoolStats(const obs::ObsContext* o, const BatchPoolStats& stats) {
  obs::AddCount(o, "batchpool.acquires", stats.acquires);
  obs::AddCount(o, "batchpool.reuses", stats.reuses);
  obs::AddCount(o, "batchpool.releases", stats.releases);
  obs::AddCount(o, "batchpool.sheds", stats.sheds);
}

void PooledBatch::Release() {
  if (pool_ != nullptr) pool_->Release(slot_);
  pool_ = nullptr;
  batch_ = nullptr;
}

}  // namespace smoothscan
