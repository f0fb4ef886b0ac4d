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
    pool_->Unpin(key_, frame_, mirror_frame_);
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
  spare_tables_.resize(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
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

uint32_t BufferPool::FindLocked(const Shard& shard, uint64_t key) const {
  const FileId file = FileOf(key);
  if (file >= shard.table.size()) return kNil;
  const PageMap& map = shard.table[file];
  // Below base, i wraps past any array length.
  const size_t i = size_t{PageOf(key) / num_shards()} - map.base;
  return i < map.frames.size() ? map.frames[i] : kNil;
}

void BufferPool::TableInsertLocked(Shard* shard, uint64_t key,
                                   uint32_t frame) {
  const FileId file = FileOf(key);
  const size_t pos = PageOf(key) / num_shards();
  if (file >= shard->table.size() ||
      pos - shard->table[file].base >= shard->table[file].frames.size()) {
    CoverLocked(shard, file, pos);
  }
  PageMap& map = shard->table[file];
  map.frames[pos - map.base] = frame;
}

void BufferPool::CoverLocked(Shard* shard, FileId file, size_t pos) {
  latch::LatchGuard lock(maps_mu_);
  if (file >= spans_.size()) {
    spans_.resize(size_t{file} + 1);
    for (std::vector<PageMap>& table : spare_tables_) {
      table = std::vector<PageMap>(spans_.size());
    }
  }
  FileSpan& span = spans_[file];
  const size_t length = span.hi - span.lo;
  if (pos - span.lo >= length) {
    // At least double the range toward the page; arrays for every shard.
    if (length == 0) {
      span.lo = pos;
      span.hi = pos + kMinMapSpan;
    } else if (pos < span.lo) {
      span.lo = std::min(pos, span.lo - std::min(span.lo, length));
    } else {
      span.hi = std::max(pos + 1, span.hi + length);
    }
    span.spare.resize(shards_.size());
    for (std::vector<uint32_t>& frames : span.spare) {
      frames.assign(span.hi - span.lo, kNil);
    }
  }
  // Install this shard's arrays, moving its entries across.
  if (file >= shard->table.size()) {
    std::vector<PageMap>& table = spare_tables_[shard->index];
    std::move(shard->table.begin(), shard->table.end(), table.begin());
    shard->table.swap(table);
    table = {};
  }
  PageMap& map = shard->table[file];
  std::vector<uint32_t>& frames = span.spare[shard->index];
  if (!map.frames.empty()) {
    std::copy(map.frames.begin(), map.frames.end(),
              frames.begin() + (map.base - span.lo));
  }
  map.frames.swap(frames);
  map.base = span.lo;
  frames = {};
}

void BufferPool::UnlinkLocked(Shard* shard, uint32_t frame) {
  Frame& f = shard->frames[frame];
  if (f.prev != kNil) {
    shard->frames[f.prev].next = f.next;
  } else {
    shard->head = f.next;
  }
  if (f.next != kNil) {
    shard->frames[f.next].prev = f.prev;
  } else {
    shard->tail = f.prev;
  }
  f.prev = kNil;
  f.next = kNil;
}

void BufferPool::PushFrontLocked(Shard* shard, uint32_t frame) {
  Frame& f = shard->frames[frame];
  f.prev = kNil;
  f.next = shard->head;
  if (shard->head != kNil) {
    shard->frames[shard->head].prev = frame;
  } else {
    shard->tail = frame;
  }
  shard->head = frame;
}

void BufferPool::TouchLocked(Shard* shard, uint32_t frame) {
  if (shard->head == frame) return;
  UnlinkLocked(shard, frame);
  PushFrontLocked(shard, frame);
}

void BufferPool::DropLocked(Shard* shard, uint32_t frame) {
  UnlinkLocked(shard, frame);
  const uint64_t key = shard->frames[frame].key;
  PageMap& map = shard->table[FileOf(key)];
  map.frames[PageOf(key) / num_shards() - map.base] = kNil;
  shard->free_frames.push_back(frame);
  --shard->resident;
}

uint64_t BufferPool::InsertLocked(Shard* shard, uint64_t key,
                                  uint32_t* frame) {
  uint64_t write_back = kNoWriteBack;
  if (shard->resident >= shard->capacity) {
    // Evict the least recently used unpinned page; its frame takes the new
    // page. When everything is pinned the shard transiently overflows its
    // capacity share — pins win. A dirty victim is written back before it is
    // dropped (the caller charges it after unlocking): eviction must never
    // lose a mutation.
    for (uint32_t v = shard->tail; v != kNil; v = shard->frames[v].prev) {
      const Frame& victim = shard->frames[v];
      if (victim.pins > 0) continue;
      if (victim.dirty) {
        write_back = victim.key;
        ++shard->stats.write_backs;
      }
      DropLocked(shard, v);
      break;
    }
  }
  uint32_t f;
  if (!shard->free_frames.empty()) {
    f = shard->free_frames.back();
    shard->free_frames.pop_back();
  } else {
    f = static_cast<uint32_t>(shard->frames.size());
    shard->frames.emplace_back();
  }
  shard->frames[f] = Frame{key, kNil, kNil, 0, false};
  PushFrontLocked(shard, f);
  TableInsertLocked(shard, key, f);
  ++shard->resident;
  *frame = f;
  return write_back;
}

uint32_t BufferPool::UseLocked(Shard* shard, uint64_t key, bool* miss,
                               uint64_t* evicted) {
  uint32_t frame = FindLocked(*shard, key);
  *miss = frame == kNil;
  if (*miss) {
    *evicted = InsertLocked(shard, key, &frame);
  } else {
    TouchLocked(shard, frame);
  }
  return frame;
}

PageGuard BufferPool::MakeGuard(FileId file, PageId page, uint32_t frame) {
  const uint64_t key = Key(file, page);
  const uint32_t mirror_frame =
      mirror_ != nullptr ? mirror_->PinKey(key) : kNil;
  return PageGuard(this, key, frame, mirror_frame,
                   &storage_->GetPage(file, page));
}

uint32_t BufferPool::PinKey(uint64_t key) {
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  uint32_t frame;
  {
    latch::LatchGuard lock(shard.mu);
    bool miss;
    frame = UseLocked(&shard, key, &miss, &evicted);
    ++shard.frames[frame].pins;
  }
  ChargeWriteBack(evicted);
  return frame;
}

void BufferPool::UnpinFrame(uint64_t key, uint32_t frame) {
  Shard& shard = ShardFor(key);
  latch::LatchGuard lock(shard.mu);
  SMOOTHSCAN_CHECK(frame < shard.frames.size());
  Frame& f = shard.frames[frame];
  SMOOTHSCAN_CHECK(f.key == key && f.pins > 0);
  --f.pins;
}

void BufferPool::TouchKey(uint64_t key) {
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    bool miss;
    UseLocked(&shard, key, &miss, &evicted);
  }
  ChargeWriteBack(evicted);
}

bool BufferPool::Contains(FileId file, PageId page) const {
  const uint64_t key = Key(file, page);
  const Shard& shard = ShardFor(key);
  latch::LatchGuard lock(shard.mu);
  return FindLocked(shard, key) != kNil;
}

size_t BufferPool::EvictFile(FileId file) {
  size_t dropped = 0;
  std::vector<uint64_t> write_back;
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    latch::LatchGuard lock(shard.mu);
    for (uint32_t f = shard.head; f != kNil;) {
      const Frame& frame = shard.frames[f];
      const uint32_t next = frame.next;
      if (FileOf(frame.key) == file) {
        // A pinned frame here means a consumer outlived the invalidation
        // point — truncating the backing file would dangle its reference.
        SMOOTHSCAN_CHECK(frame.pins == 0);
        if (frame.dirty) {
          write_back.push_back(frame.key);
          ++shard.stats.write_backs;
        }
        DropLocked(&shard, f);
        ++dropped;
      }
      f = next;
    }
  }
  // Charge outside the shard latches, in (file, page) order like FlushAll.
  std::sort(write_back.begin(), write_back.end());
  for (const uint64_t key : write_back) {
    disk_->WritePage(FileOf(key), PageOf(key));
  }
  return dropped;
}

PageGuard BufferPool::Fetch(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  bool miss;
  uint64_t evicted = kNoWriteBack;
  uint32_t frame;
  {
    latch::LatchGuard lock(shard.mu);
    frame = UseLocked(&shard, key, &miss, &evicted);
    ++shard.frames[frame].pins;
    ++(miss ? shard.stats.misses : shard.stats.hits);
  }
  // Charge outside the shard latch; SimDisk serializes internally.
  ChargeWriteBack(evicted);
  if (miss) disk_->ReadPage(file, page);
  return MakeGuard(file, page, frame);
}

void BufferPool::Lookup(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  bool miss;
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    UseLocked(&shard, key, &miss, &evicted);
    ++(miss ? shard.stats.misses : shard.stats.hits);
  }
  // The charges in Fetch's order, outside the shard latch.
  ChargeWriteBack(evicted);
  if (miss) disk_->ReadPage(file, page);
  if (mirror_ != nullptr) mirror_->TouchKey(key);
}

PageGuard BufferPool::PinIfResident(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  uint32_t frame;
  {
    latch::LatchGuard lock(shard.mu);
    frame = FindLocked(shard, key);
    if (frame == kNil) return PageGuard();
    TouchLocked(&shard, frame);
    ++shard.frames[frame].pins;
  }
  return MakeGuard(file, page, frame);
}

PageGuard BufferPool::Pin(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  uint32_t frame;
  {
    latch::LatchGuard lock(shard.mu);
    bool miss;
    frame = UseLocked(&shard, key, &miss, &evicted);
    ++shard.frames[frame].pins;
  }
  ChargeWriteBack(evicted);
  return MakeGuard(file, page, frame);
}

void BufferPool::Unpin(uint64_t key, uint32_t frame, uint32_t mirror_frame) {
  UnpinFrame(key, frame);
  // One mirror pin was taken per local pin, so the release is symmetric.
  if (mirror_ != nullptr) mirror_->UnpinFrame(key, mirror_frame);
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
    const uint32_t frame = FindLocked(shard, key);
    if (frame == kNil) return false;
    ++shard.stats.hits;
    TouchLocked(&shard, frame);
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
      bool miss;
      UseLocked(&shard, key, &miss, &evicted);
      if (miss) ++shard.stats.misses;
    }
    ChargeWriteBack(evicted);
  }
}

void BufferPool::AddHits(FileId file, PageId page, uint64_t n) {
  Shard& shard = ShardFor(Key(file, page));
  latch::LatchGuard lock(shard.mu);
  shard.stats.hits += n;
}

void BufferPool::MarkDirty(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  uint64_t evicted = kNoWriteBack;
  {
    latch::LatchGuard lock(shard.mu);
    bool miss;
    shard.frames[UseLocked(&shard, key, &miss, &evicted)].dirty = true;
  }
  ChargeWriteBack(evicted);
}

bool BufferPool::FlushPage(FileId file, PageId page) {
  const uint64_t key = Key(file, page);
  Shard& shard = ShardFor(key);
  {
    latch::LatchGuard lock(shard.mu);
    const uint32_t frame = FindLocked(shard, key);
    if (frame == kNil || !shard.frames[frame].dirty) return false;
    shard.frames[frame].dirty = false;
    ++shard.stats.write_backs;
  }
  // Charge outside the shard latch; SimDisk serializes internally.
  disk_->WritePage(file, page);
  return true;
}

size_t BufferPool::FlushAll() {
  size_t pinned = 0;
  std::vector<uint64_t> write_back;
  for (auto& owned : shards_) {
    Shard& shard = *owned;
    latch::LatchGuard lock(shard.mu);
    const size_t before = write_back.size();
    for (uint32_t f = shard.head; f != kNil;) {
      const Frame& frame = shard.frames[f];
      const uint32_t next = frame.next;
      if (frame.pins > 0) {
        // Skip + report: a pinned page is never invalidated. A pinned dirty
        // page keeps its dirty bit — the write-back is queued for the next
        // flush (or the eviction after the unpin), never dropped.
        ++pinned;
      } else {
        if (frame.dirty) write_back.push_back(frame.key);
        DropLocked(&shard, f);
      }
      f = next;
    }
    shard.stats.write_backs += write_back.size() - before;
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
    total += shard->stats;
  }
  return total;
}

size_t BufferPool::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    n += shard->resident;
  }
  return n;
}

uint64_t BufferPool::pinned_pages() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    for (uint32_t f = shard->head; f != kNil; f = shard->frames[f].next) {
      if (shard->frames[f].pins > 0) ++n;
    }
  }
  return n;
}

uint64_t BufferPool::dirty_pages() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    latch::LatchGuard lock(shard->mu);
    for (uint32_t f = shard->head; f != kNil; f = shard->frames[f].next) {
      if (shard->frames[f].dirty) ++n;
    }
  }
  return n;
}

}  // namespace smoothscan
