// BufferPool: page-granularity LRU cache sitting between operators and the
// simulated disk. A hit costs nothing; a miss charges SimDisk. Benchmarks run
// "cold" by calling FlushAll() before each query, mirroring the paper's
// clearing of database and OS caches before every execution.
//
// Concurrency: the pool is sharded — each shard owns a slice of the capacity
// with its own latch, frame array and page table, so concurrent fetches on
// different shards never contend. Pages are handed out as pinned PageGuards:
// a pinned page is never evicted and FlushAll() skips (and reports) it, so a
// reference obtained from Fetch() stays valid for the guard's lifetime even
// while other threads churn the pool. Construct with `num_shards = 1` to pin
// the exact global-LRU eviction order (tests; morsel-local pools).
//
// Layout: a shard keeps its resident pages in a frame array, linked into an
// intrusive doubly linked LRU list through uint32_t indices. A direct page
// table maps a page to its frame: per file, an array indexed by the page's
// position among the shard's pages (page / num_shards()) less a base, so a
// find, insert or erase is one indexed load or store. A file's arrays cover
// the positions the pool has touched, the same range in every shard: 64 at
// the first insert, then at least doubled toward any page outside. The
// shard that extends a range makes every shard's array for it under the
// pool's page-map latch, and each other shard installs its own at its next
// insert outside its old one. So page-table memory follows the pages a pool
// touches, a shard that reaches a file late does not allocate, and the pool
// never reads file lengths, which a publish to another table may be
// changing. A dropped page's frame goes on a free-frame list, which the next
// insert takes from before it grows the frame array. The frame array grows
// on demand up to the shard's capacity share (further only while every
// frame is pinned), so a full pool fetches, evicts and pins without touching
// the heap. A pinned frame never moves, so a PageGuard records its frame
// index (and the mirror's) and releases its pin without a table look-up.
//
// Look-ups: a reader that decodes one tuple and lets go of the page at once
// (HeapFile::ReadInto, index node accesses) calls Lookup instead of Fetch.
// It does what Fetch and an immediate release do to the counts, the LRU
// order, the charges and the mirror, but takes no pin, so it costs one shard
// latch here and one in the mirror. The reader then reads the page from the
// StorageManager, whose pages do not change under the table's read lease.
//
// BufferPoolStats is the one copy of the pool's counts: the pool's owner
// adds them to the registry through AddPoolStats once they settle.

#ifndef SMOOTHSCAN_STORAGE_BUFFER_POOL_H_
#define SMOOTHSCAN_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/page.h"
#include "storage/sim_disk.h"
#include "storage/storage_manager.h"

namespace smoothscan {

namespace obs {
struct ObsContext;
}  // namespace obs

class BufferPool;

/// Buffer-pool hit/miss counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t write_backs = 0;  ///< Dirty pages written back (flush + eviction).

  BufferPoolStats& operator+=(const BufferPoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    write_backs += o.write_backs;
    return *this;
  }
};

/// Adds `stats` to the registry's bufferpool.* counters (obs::AddCount).
void AddPoolStats(const obs::ObsContext* o, const BufferPoolStats& stats);

/// A pinned reference to a buffer-pool page. While the guard lives, the page
/// cannot be evicted or flushed, so the `Page&` it exposes cannot dangle.
/// Move-only; unpins on destruction. A default-constructed guard is empty.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { MoveFrom(&other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  const Page& operator*() const { return *page_; }
  const Page* operator->() const { return page_; }
  const Page* get() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, uint64_t key, uint32_t frame,
            uint32_t mirror_frame, const Page* page)
      : pool_(pool),
        key_(key),
        frame_(frame),
        mirror_frame_(mirror_frame),
        page_(page) {}
  void MoveFrom(PageGuard* other) {
    pool_ = other->pool_;
    key_ = other->key_;
    frame_ = other->frame_;
    mirror_frame_ = other->mirror_frame_;
    page_ = other->page_;
    other->pool_ = nullptr;
    other->page_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  uint64_t key_ = 0;
  uint32_t frame_ = 0;         ///< The pinned frame in pool_'s shard.
  uint32_t mirror_frame_ = 0;  ///< Its mirror pin's frame (if mirrored).
  // lint:allow(raw-page-member) — PageGuard IS the pin-aware wrapper the
  // rule tells everyone else to hold pages through.
  const Page* page_ = nullptr;
};

/// Sharded LRU buffer pool (see file comment).
class BufferPool {
 public:
  /// Default shard count of engine-owned pools.
  static constexpr uint32_t kDefaultShards = 8;

  /// `capacity_pages` bounds the number of resident pages across all shards;
  /// the effective shard count never exceeds the capacity.
  BufferPool(StorageManager* storage, SimDisk* disk, size_t capacity_pages,
             uint32_t num_shards = kDefaultShards);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned guard of `page` of `file`, charging the disk on a miss.
  PageGuard Fetch(FileId file, PageId page);

  /// Accounts one look-up of `page` of `file` exactly as Fetch followed by
  /// an immediate release would: a hit or a miss, the page made most
  /// recently used, a miss's read and a dirty victim's write-back charged,
  /// and the page inserted or touched in the mirror. Takes no pin.
  void Lookup(FileId file, PageId page);

  /// Returns a pinned guard without any I/O charge or hit/miss accounting:
  /// the caller already charged the access through its own stream (morsel
  /// execution), or the access is free by design. Inserts the page if absent.
  PageGuard Pin(FileId file, PageId page);

  /// Pins `page` only if it is resident right now (no I/O charge, no
  /// hit/miss accounting); an empty guard means absent. Check and pin happen
  /// under one shard latch, so the caller's "ride a peer-paid resident page
  /// for free" decision cannot be invalidated by a concurrent eviction (the
  /// shared-SmoothScan mode's honesty guarantee).
  PageGuard PinIfResident(FileId file, PageId page);

  /// Prefetches the extent [first, first + num_pages) with a single I/O
  /// request (Smooth Scan Mode 2 flattening / scan read-ahead). Pages already
  /// resident at the head or tail of the extent shrink the transfer; the
  /// charged request spans the first through last non-resident page, since a
  /// physical extent read cannot skip holes in the middle. Takes no pins.
  void FetchExtent(FileId file, PageId first, uint32_t num_pages);

  /// Counts `n` hits on `page` of `file` with no other effect: the look-ups
  /// a page-run reader decoded under the one Fetch it still pins. Each would
  /// have been a hit on the page that Fetch just made most recently used, so
  /// the LRU state and the counts match per-look-up fetching exactly.
  void AddHits(FileId file, PageId page, uint64_t n);

  /// Marks `page` of `file` dirty: its content diverges from "disk" and must
  /// be written back (charged through SimDisk) before the frame can be
  /// dropped. Inserts the frame if absent — a freshly published page is
  /// buffer-resident by definition — with no read charge and no hit/miss
  /// accounting. The dirty bit is strictly local: it never propagates to a
  /// mirror, so a query-private pool mirroring into the engine pool can never
  /// cause double-charged write I/O (see SetMirror).
  void MarkDirty(FileId file, PageId page);

  /// Writes back `page` of `file` if resident and dirty (one WritePage
  /// charge), clearing the dirty bit; the frame stays resident. Returns true
  /// when a write-back happened. Pins are irrelevant here — write-back does
  /// not invalidate the frame.
  bool FlushPage(FileId file, PageId page);

  /// Writes back every dirty page it can and evicts every unpinned page: the
  /// next access to an evicted page is a cold miss. Write-backs are charged
  /// as extent writes over (file, page)-sorted runs, so flush cost is a pure
  /// function of the dirty set, not of eviction order. Pinned pages are
  /// skipped — never invalidated — and their count is returned; a *pinned
  /// dirty* page keeps its dirty bit, queueing the write-back for the next
  /// FlushPage/FlushAll (or for the eviction that follows the unpin), so no
  /// mutation is ever silently dropped.
  size_t FlushAll();

  /// True when the page is resident (no I/O charged; no LRU update).
  bool Contains(FileId file, PageId page) const;

  /// Drops every frame of `file` from every shard, writing dirty victims
  /// back first (charged as page writes). Aborts if any frame of the file is
  /// still pinned: callers invalidate only at publish quiescence, when no
  /// consumer (query pin, mirror pin or parked shared-scan window) can be
  /// holding the file's pages — the compressed tier's rebuild hygiene.
  /// Returns the number of frames dropped.
  size_t EvictFile(FileId file);

  /// Mirrors this pool's residency and pins into `mirror` (typically the
  /// engine's shared pool): every page this pool fetches or pins is also
  /// pinned in the mirror for the guard's lifetime, and look-ups and extent
  /// prefetches touch the mirror's LRU — with no I/O charge or hit/miss
  /// accounting there. This is how the multi-query engine splits the two
  /// planes: a query's *cost* flows through its private stack (bit-identical
  /// to a solo run), while its *memory residency* lands in the one shared
  /// pool, where concurrent queries genuinely contend on shard latches, LRU
  /// state and pin counts. Must be set before the first fetch; pass null to
  /// detach. The mirror itself must not have a mirror.
  ///
  /// Write-I/O audit: mirror-side frames are always inserted *clean* and
  /// MarkDirty never forwards to the mirror, so a mirrored fetch (or pin) of
  /// a page that is dirty in the engine pool can neither clear that dirty bit
  /// nor charge a second write-back to any stream — write I/O for a page is
  /// charged exactly once, by the pool that owns the dirty bit.
  void SetMirror(BufferPool* mirror);
  BufferPool* mirror() const { return mirror_; }

  /// Aggregated over shards (copied under the shard latches).
  BufferPoolStats stats() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Currently pinned pages (for tests / flush reporting).
  uint64_t pinned_pages() const;
  /// Currently dirty pages (for tests / flush reporting).
  uint64_t dirty_pages() const;
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  friend class PageGuard;

  /// "No frame": an empty page-table entry, or either end of the LRU list.
  static constexpr uint32_t kNil = ~0u;

  /// One resident page. `prev`/`next` link the shard's LRU list (prev is
  /// toward the most recently used end); a free frame's links are unused.
  struct Frame {
    uint64_t key = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint32_t pins = 0;
    bool dirty = false;  ///< Content newer than "disk"; write back to drop.
  };
  /// A shard's page table for one file: frames[i] holds the shard's page at
  /// position base + i, or kNil.
  struct PageMap {
    size_t base = 0;
    std::vector<uint32_t> frames;
  };
  /// The positions [lo, hi) every shard's array for one file covers, and
  /// the arrays for it that shards have not installed yet.
  struct FileSpan {
    size_t lo = 0;
    size_t hi = 0;
    std::vector<std::vector<uint32_t>> spare;  ///< One per shard.
  };
  /// Positions a file's range covers when the pool first inserts its page.
  static constexpr size_t kMinMapSpan = 64;
  struct Shard {
    mutable latch::Latch mu{latch::LatchRank::kPoolShard,
                            "BufferPool::Shard::mu"};
    /// Set once at pool construction, before the pool is shared; read-only
    /// afterwards, hence not guarded.
    size_t index = 0;
    size_t capacity = 0;
    std::vector<Frame> frames GUARDED_BY(mu);
    std::vector<uint32_t> free_frames GUARDED_BY(mu);
    /// Direct page table, one map per file id (see file comment).
    std::vector<PageMap> table GUARDED_BY(mu);
    uint32_t head GUARDED_BY(mu) = kNil;  ///< Most recently used.
    uint32_t tail GUARDED_BY(mu) = kNil;  ///< Least recently used.
    size_t resident GUARDED_BY(mu) = 0;
    BufferPoolStats stats GUARDED_BY(mu);
  };

  // 64-bit key packing (file, page).
  static uint64_t Key(FileId file, PageId page) {
    return (static_cast<uint64_t>(file) << 32) | page;
  }
  static PageId PageOf(uint64_t key) { return static_cast<PageId>(key); }
  static FileId FileOf(uint64_t key) { return static_cast<FileId>(key >> 32); }

  Shard& ShardFor(uint64_t key) {
    // Consecutive pages round-robin across shards so sequential scans spread.
    return *shards_[PageOf(key) % num_shards()];
  }
  const Shard& ShardFor(uint64_t key) const {
    return *shards_[PageOf(key) % num_shards()];
  }

  /// Sentinel return of InsertLocked: no dirty page was evicted.
  static constexpr uint64_t kNoWriteBack = ~0ull;

  /// The frame holding `key`, or kNil.
  uint32_t FindLocked(const Shard& shard, uint64_t key) const
      REQUIRES(shard.mu);
  /// Records `frame` as the page's in the shard's page table.
  void TableInsertLocked(Shard* shard, uint64_t key, uint32_t frame)
      REQUIRES(shard->mu);
  /// Makes `shard`'s array for `file` reach position `pos`, extending the
  /// file's range first if it does not (see file comment).
  void CoverLocked(Shard* shard, FileId file, size_t pos) REQUIRES(shard->mu)
      EXCLUDES(maps_mu_);
  /// LRU list maintenance.
  static void UnlinkLocked(Shard* shard, uint32_t frame) REQUIRES(shard->mu);
  static void PushFrontLocked(Shard* shard, uint32_t frame)
      REQUIRES(shard->mu);
  static void TouchLocked(Shard* shard, uint32_t frame) REQUIRES(shard->mu);
  /// Unlinks `frame` from the list and the table and frees it.
  void DropLocked(Shard* shard, uint32_t frame) REQUIRES(shard->mu);

  /// Inserts `key` as most-recently-used in its shard (which must be locked),
  /// evicting the least recently used *unpinned* page if the shard is full,
  /// and returns the new frame in `*frame`. A dirty victim's write-back is
  /// counted here but *charged by the caller* (after releasing the shard
  /// latch — SimDisk has its own latch and the fetch hot path must not nest
  /// them): returns the evicted dirty key, or kNoWriteBack.
  uint64_t InsertLocked(Shard* shard, uint64_t key, uint32_t* frame)
      REQUIRES(shard->mu);
  /// Charges the write-back InsertLocked reported, outside the shard latch.
  void ChargeWriteBack(uint64_t evicted) {
    if (evicted != kNoWriteBack) {
      disk_->WritePage(FileOf(evicted), PageOf(evicted));
    }
  }
  /// Finds or inserts `key` and marks it most recently used (no pin, no
  /// accounting); returns its frame. `*miss` reports an insert.
  uint32_t UseLocked(Shard* shard, uint64_t key, bool* miss,
                     uint64_t* evicted) REQUIRES(shard->mu);
  /// Wraps a pinned local frame in a guard, pinning the mirror alongside.
  PageGuard MakeGuard(FileId file, PageId page, uint32_t frame);
  /// Releases a guard's pins: the local frame's, then the mirror's.
  void Unpin(uint64_t key, uint32_t frame, uint32_t mirror_frame);

  /// Mirror-side primitives: insert-or-touch `key` (PinKey also takes a pin
  /// and returns its frame), with no disk charge and no hit/miss accounting.
  uint32_t PinKey(uint64_t key);
  void TouchKey(uint64_t key);
  /// Drops one pin of `frame`, which must hold `key` (either side).
  void UnpinFrame(uint64_t key, uint32_t frame);

  StorageManager* storage_;
  SimDisk* disk_;
  size_t capacity_;
  BufferPool* mirror_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Taken under a shard latch when an insert falls outside its array.
  mutable latch::Latch maps_mu_{latch::LatchRank::kPoolMaps,
                                "BufferPool::maps_mu_"};
  std::vector<FileSpan> spans_ GUARDED_BY(maps_mu_);  ///< Per file id.
  /// Per shard: a table as long as spans_, for a shard whose table is
  /// shorter to install.
  std::vector<std::vector<PageMap>> spare_tables_ GUARDED_BY(maps_mu_);
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_BUFFER_POOL_H_
