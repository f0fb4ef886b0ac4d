#include "access/result_cache.h"

#include <algorithm>

namespace smoothscan {

ResultCache::ResultCache(std::vector<int64_t> separators, Engine* engine,
                         ResultCacheOptions options)
    : separators_(std::move(separators)), engine_(engine), options_(options) {
  SMOOTHSCAN_CHECK(std::is_sorted(separators_.begin(), separators_.end()));
  if (options_.max_resident_tuples != UINT64_MAX) {
    SMOOTHSCAN_CHECK(engine_ != nullptr);
  }
  if (options_.broker != nullptr) {
    SMOOTHSCAN_CHECK(engine_ != nullptr);  // Pressure spill charges I/O.
    mem_ = options_.broker->Register(MemoryClass::kResultCache, "result_cache");
  }
  partitions_.resize(separators_.size() + 1);
}

void ResultCache::SyncBrokerCharge() {
  if (!mem_.valid()) return;
  const uint64_t want = resident_size_ * options_.bytes_per_tuple;
  const uint64_t have = mem_.bytes();
  if (want > have) {
    mem_.Charge(want - have);
  } else if (want < have) {
    mem_.Uncharge(have - want);
  }
}

size_t ResultCache::PartitionOf(int64_t key) const {
  // Partition i holds keys below separators_[i] (and at/above sep[i-1]).
  return static_cast<size_t>(
      std::upper_bound(separators_.begin(), separators_.end(), key) -
      separators_.begin());
}

uint32_t ResultCache::SpillPages(size_t n) const {
  return static_cast<uint32_t>(
      (n + kSpillTuplesPerPage - 1) / kSpillTuplesPerPage);
}

void ResultCache::SpillPartition(size_t p) {
  Partition& part = partitions_[p];
  if (!spill_file_created_) {
    spill_file_ = engine_->storage().CreateFile("result_cache_overflow");
    spill_file_created_ = true;
  }
  const uint32_t pages = SpillPages(part.tuples.size());
  // lint:allow(ctx-charging) — spill I/O is communal maintenance on the
  // engine's shared stream (like write-backs), not a query's scan charge.
  engine_->disk().WriteExtent(spill_file_, next_spill_page_, pages);
  next_spill_page_ += pages;
  part.spilled = true;  // Contents retained in memory; I/O is simulated.
  resident_size_ -= part.tuples.size();
  ++spill_stats_.spills;
  spill_stats_.spilled_tuples += part.tuples.size();
}

void ResultCache::MaybeSpill(size_t keep) {
  if (resident_size_ <= options_.max_resident_tuples) return;
  // Spill from the furthest key range backwards, skipping the partition
  // currently being filled (spilling it would thrash).
  for (size_t p = partitions_.size(); p-- > first_live_partition_;) {
    if (resident_size_ <= options_.max_resident_tuples) break;
    Partition& part = partitions_[p];
    if (p == keep || part.spilled || part.tuples.empty()) continue;
    SpillPartition(p);
  }
}

void ResultCache::SpillForPressure(size_t keep) {
  if (!mem_.valid() || !options_.broker->UnderPressure()) return;
  // Same furthest-first order as the budget path: the overflow file is read
  // back "upon reaching the range keys belong to", so far ranges cost least.
  for (size_t p = partitions_.size(); p-- > first_live_partition_;) {
    Partition& part = partitions_[p];
    if (p == keep || part.spilled || part.tuples.empty()) continue;
    SpillPartition(p);
    ++spill_stats_.pressure_spills;
    SyncBrokerCharge();  // Uncharge before re-checking global pressure.
    if (!options_.broker->UnderPressure()) break;
  }
}

void ResultCache::Restore(size_t p) {
  Partition& part = partitions_[p];
  SMOOTHSCAN_CHECK(part.spilled);
  const uint32_t pages = SpillPages(part.tuples.size());
  // lint:allow(ctx-charging) — restore I/O lands on the shared stream, the
  // mirror of the spill charge above.
  engine_->disk().ReadExtent(spill_file_, 0, pages);
  part.spilled = false;
  resident_size_ += part.tuples.size();
  ++spill_stats_.restores;
  spill_stats_.restored_tuples += part.tuples.size();
  SyncBrokerCharge();
}

void ResultCache::Insert(int64_t key, Tid tid, Tuple tuple) {
  const size_t p = PartitionOf(key);
  SMOOTHSCAN_CHECK(p >= first_live_partition_);
  Partition& part = partitions_[p];
  if (part.spilled) Restore(p);
  auto [it, inserted] = part.tuples.emplace(Pack(tid), std::move(tuple));
  (void)it;
  if (inserted) {
    ++size_;
    ++resident_size_;
    ++inserts_;
    max_size_ = std::max(max_size_, size_);
    MaybeSpill(p);
    SyncBrokerCharge();
    SpillForPressure(p);
  }
}

std::optional<Tuple> ResultCache::Take(int64_t key, Tid tid) {
  const size_t p = PartitionOf(key);
  if (p < first_live_partition_) return std::nullopt;
  Partition& part = partitions_[p];
  if (part.spilled) {
    // "Overflow files ... are read upon reaching the range keys belong to."
    Restore(p);
  }
  auto it = part.tuples.find(Pack(tid));
  if (it == part.tuples.end()) return std::nullopt;
  Tuple tuple = std::move(it->second);
  part.tuples.erase(it);
  --size_;
  --resident_size_;
  SyncBrokerCharge();
  return tuple;
}

uint64_t ResultCache::EvictBelow(int64_t key) {
  uint64_t evicted = 0;
  // Partition p's keys are < separators_[p]; it is dead once key >= sep[p].
  while (first_live_partition_ < separators_.size() &&
         key >= separators_[first_live_partition_]) {
    Partition& part = partitions_[first_live_partition_];
    evicted += part.tuples.size();
    size_ -= part.tuples.size();
    if (!part.spilled) resident_size_ -= part.tuples.size();
    part.tuples.clear();
    part.spilled = false;
    ++first_live_partition_;
  }
  SyncBrokerCharge();
  return evicted;
}

}  // namespace smoothscan
