#include "storage/buffer_pool.h"

#include <algorithm>
#include <vector>

#include "obs/obs_context.h"

namespace smoothscan {

void AddPoolStats(const obs::ObsContext* o, const BufferPoolStats& stats) {
  obs::AddCount(o, "bufferpool.hits", stats.hits);
  obs::AddCount(o, "bufferpool.misses", stats.misses);
  obs::AddCount(o, "bufferpool.write_backs", stats.write_backs);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(key_);
    pool_ = nullptr;
  }
  page_ = nullptr;
}

BufferPool::BufferPool(StorageManager* storage, SimDisk* disk,
                       size_t capacity_pages, uint32_t num_shards)
    : storage_(storage), disk_(disk), capacity_(capacity_pages) {
  SMOOTHSCAN_CHECK(capacity_pages > 0);
  SMOOTHSCAN_CHECK(num_shards > 0);
  const size_t shards =
      std::min<size_t>(num_shards, std::max<size_t>(1, capacity_pages));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the capacity; earlier shards take the remainder.
    shards_.back()->capacity = capacity_pages / shards +
                               (i < capacity_pages % shards ? 1 : 0);
  }
}

void BufferPool::SetMirror(BufferPool* mirror) {
  SMOOTHSCAN_CHECK(mirror != this);
  SMOOTHSCAN_CHECK(mirror == nullptr || mirror->mirror_ == nullptr);
  mirror_ = mirror;
}

void BufferPool::PinKey(uint64_t key) {
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ++it->second.pins;
    } else {
      evicted = InsertLocked(&shard, key);
      ++shard.map[key].pins;
    }
  }
  ChargeWriteBack(evicted);
}

void BufferPool::UnpinKey(uint64_t key) {
  Shard& shard = ShardFor(key);
  latch::LatchGuard lock(shard.mu);
  auto it = shard.map.find(key);
  SMOOTHSCAN_CHECK(it != shard.map.end() && it->second.pins > 0);
  --it->second.pins;
}

void BufferPool::TouchKey(uint64_t key) {
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    } else {
      evicted = InsertLocked(&shard, key);
    }
  }
  ChargeWriteBack(evicted);
}

bool BufferPool::Contains(FileId file, PageId page) const {
  const uint64_t key = Key(file, page);
  const Shard& shard = ShardFor(key);
  latch::LatchGuard lock(shard.mu);
  return shard.map.count(key) > 0;
}

size_t BufferPool::EvictFile(FileId file) {
  size_t dropped = 0;
  std::vector<uint64_t> write_back;
  for (auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (FileOf(it->first) != file) {
        ++it;
        continue;
      }
      // A pinned frame here means a consumer outlived the invalidation
      // point — truncating the backing file would dangle its reference.
      SMOOTHSCAN_CHECK(it->second.pins == 0);
      if (it->second.dirty) {
        write_back.push_back(it->first);
        ++shard->stats.write_backs;
      }
      shard->lru.erase(it->second.lru_it);
      it = shard->map.erase(it);
      ++dropped;
    }
  }
  // Charge outside the shard latches, in (file, page) order like FlushAll.
  std::sort(write_back.begin(), write_back.end());
  for (const uint64_t key : write_back) {
    disk_->WritePage(FileOf(key), PageOf(key));
  }
  return dropped;
}

uint64_t BufferPool::InsertLocked(Shard* shard, uint64_t key) {
  uint64_t write_back = kNoWriteBack;
  if (shard->map.size() >= shard->capacity) {
    // Evict the least recently used unpinned page. When everything is pinned
    // the shard transiently overflows its capacity share — pins win. A dirty
    // victim is written back before it is dropped (the caller charges it
    // after unlocking): eviction must never lose a mutation.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      auto victim = shard->map.find(*it);
      if (victim->second.pins > 0) continue;
      if (victim->second.dirty) {
        write_back = *it;
        ++shard->stats.write_backs;
      }
      shard->lru.erase(std::next(it).base());
      shard->map.erase(victim);
      break;
    }
  }
  shard->lru.push_front(key);
  shard->map[key] = Entry{shard->lru.begin(), 0, false};
  return write_back;
}

PageGuard BufferPool::Fetch(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  bool miss = false;
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ++it->second.pins;
    } else {
      ++shard.stats.misses;
      miss = true;
      evicted = InsertLocked(&shard, key);
      ++shard.map[key].pins;
    }
  }
  // Charge outside the shard latch; SimDisk serializes internally.
  ChargeWriteBack(evicted);
  if (miss) disk_->ReadPage(file, page);
  if (mirror_ != nullptr) mirror_->PinKey(key);
  return PageGuard(this, key, &storage_->GetPage(file, page));
}

PageGuard BufferPool::PinIfResident(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return PageGuard();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    ++it->second.pins;
  }
  if (mirror_ != nullptr) mirror_->PinKey(key);
  return PageGuard(this, key, &storage_->GetPage(file, page));
}

PageGuard BufferPool::Pin(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ++it->second.pins;
    } else {
      evicted = InsertLocked(&shard, key);
      ++shard.map[key].pins;
    }
  }
  ChargeWriteBack(evicted);
  if (mirror_ != nullptr) mirror_->PinKey(key);
  return PageGuard(this, key, &storage_->GetPage(file, page));
}

void BufferPool::Unpin(uint64_t key) {
  UnpinKey(key);
  // One mirror pin was taken per local pin, so the release is symmetric.
  if (mirror_ != nullptr) mirror_->UnpinKey(key);
}

void BufferPool::FetchExtent(FileId file, PageId first, uint32_t num_pages) {
  if (num_pages == 0) return;
  if (mirror_ != nullptr) {
    // Residency lands in the shared pool too; no pins (the extent API takes
    // none locally either) and no charge.
    for (uint32_t i = 0; i < num_pages; ++i) {
      mirror_->TouchKey(Key(file, first + i));
    }
  }
  // Checks residency and records the hit under one latch acquisition, so a
  // concurrent eviction between the check and the touch cannot bite.
  auto touch_if_resident = [&](PageId p) -> bool {
    const uint64_t key = Key(file, p);
    Shard& shard = ShardFor(key);
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return true;
  };
  // Trim resident pages at both ends; the physical read must still cover any
  // resident pages in the middle of the extent.
  PageId lo = first;
  PageId hi = first + num_pages - 1;
  while (lo <= hi && touch_if_resident(lo)) ++lo;
  while (hi >= lo && touch_if_resident(hi)) {
    if (hi == 0) break;
    --hi;
  }
  if (lo > hi) return;  // Fully resident.
  disk_->ReadExtent(file, lo, hi - lo + 1);
  for (PageId p = lo; p <= hi; ++p) {
    const uint64_t key = Key(file, p);
    Shard& shard = ShardFor(key);
    uint64_t evicted = kNoWriteBack;
    {
      latch::LatchGuard lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      } else {
        ++shard.stats.misses;
        evicted = InsertLocked(&shard, key);
      }
    }
    ChargeWriteBack(evicted);
  }
}

void BufferPool::MarkDirty(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      it->second.dirty = true;
    } else {
      evicted = InsertLocked(&shard, key);
      shard.map[key].dirty = true;
    }
  }
  ChargeWriteBack(evicted);
}

bool BufferPool::FlushPage(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  {
    latch::LatchGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || !it->second.dirty) return false;
    it->second.dirty = false;
    ++shard.stats.write_backs;
  }
  // Charge outside the shard latch; SimDisk serializes internally.
  disk_->WritePage(file, page);
  return true;
}

size_t BufferPool::FlushAll() {
  size_t pinned = 0;
  std::vector<uint64_t> write_back;
  for (auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    const size_t before = write_back.size();
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->second.pins > 0) {
        // Skip + report: a pinned page is never invalidated. A pinned dirty
        // page keeps its dirty bit — the write-back is queued for the next
        // flush (or the eviction after the unpin), never dropped.
        ++pinned;
        ++it;
      } else {
        if (it->second.dirty) write_back.push_back(it->first);
        shard->lru.erase(it->second.lru_it);
        it = shard->map.erase(it);
      }
    }
    shard->stats.write_backs += write_back.size() - before;
  }
  // Charge the write-backs as extent writes over sorted (file, page) runs —
  // deterministic in the dirty *set*, independent of shard layout and
  // eviction order (the write-back accounting determinism the tests pin).
  std::sort(write_back.begin(), write_back.end());
  size_t i = 0;
  while (i < write_back.size()) {
    size_t j = i + 1;
    while (j < write_back.size() && write_back[j] == write_back[j - 1] + 1 &&
           FileOf(write_back[j]) == FileOf(write_back[i])) {
      ++j;
    }
    disk_->WriteExtent(FileOf(write_back[i]), PageOf(write_back[i]),
                       static_cast<uint32_t>(j - i));
    i = j;
  }
  return pinned;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.write_backs += shard->stats.write_backs;
  }
  return total;
}

size_t BufferPool::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    n += shard->map.size();
  }
  return n;
}

uint64_t BufferPool::pinned_pages() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (entry.pins > 0) ++n;
    }
  }
  return n;
}

uint64_t BufferPool::dirty_pages() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      if (entry.dirty) ++n;
    }
  }
  return n;
}

}  // namespace smoothscan
