// Result Cache (Section IV-A): holds qualifying tuples that Smooth Scan
// harvested ahead of their position in the index order, so that a plan
// relying on the index's interesting order (e.g. ORDER BY) still receives
// tuples in key order.
//
// The cache is partitioned by index-key range, with partition boundaries
// taken from the separators in the B+-tree root ("the root page is a good
// indicator of the key value distributions"). Once the scan cursor passes a
// partition's upper bound the partition can be dropped wholesale — the bulk
// deletion scheme the paper describes.
//
// Spilling: "if memory becomes scarce, cache spilling could be employed by
// using overflow files. Caches containing the ranges the furthest from the
// current key range are spilled into the overflow files that are read upon
// reaching the range keys belong to." With a resident-tuple budget and an
// engine attached, the cache spills its furthest partitions to a simulated
// overflow file (write I/O charged) and restores them on demand (read I/O
// charged).
//
// ResultCacheStats is the one copy of the spill counts: the owning
// SmoothScan adds them to the registry's rc.* counters at Close.

#ifndef SMOOTHSCAN_ACCESS_RESULT_CACHE_H_
#define SMOOTHSCAN_ACCESS_RESULT_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "mem/memory_broker.h"
#include "storage/engine.h"
#include "storage/schema.h"

namespace smoothscan {

class TableVersionRegistry;

struct ResultCacheOptions {
  /// Maximum tuples resident in memory before the furthest partitions spill.
  /// Default: unbounded (no spilling).
  uint64_t max_resident_tuples = UINT64_MAX;
  /// Tuples that fit in one overflow-file page (sizing the charged I/O).
  uint32_t spill_tuples_per_page = 64;
  /// Memory broker the cache reports its resident bytes to. Under global
  /// pressure the cache spills furthest partitions even below its own tuple
  /// budget — the broker's preferred alternative to refusing memory. Needs
  /// `engine` (spill I/O is charged); null = ungoverned.
  MemoryBroker* broker = nullptr;
  /// Resident-footprint estimate per cached tuple for broker accounting.
  uint32_t bytes_per_tuple = 128;
};

struct ResultCacheStats {
  uint64_t spills = 0;           ///< Partition spill events.
  uint64_t restores = 0;         ///< Partition restore events.
  uint64_t spilled_tuples = 0;   ///< Cumulative tuples written out.
  uint64_t restored_tuples = 0;  ///< Cumulative tuples read back.
  uint64_t pressure_spills = 0;  ///< Spills forced by broker pressure.
};

class ResultCache {
 public:
  /// `separators` are ascending partition boundaries; partition i holds keys
  /// in [separators[i-1], separators[i]). Empty separators = one partition.
  /// `engine` may be null when `options` disables spilling.
  explicit ResultCache(std::vector<int64_t> separators,
                       Engine* engine = nullptr,
                       ResultCacheOptions options = ResultCacheOptions());
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Subscribes the cache to `table`'s publish notifications: any publish of
  /// that table Clear()s the cache, because cached tuples were harvested from
  /// the pre-publish snapshot and may now be stale (deleted, updated, or
  /// re-keyed). The hook unregisters in the destructor. At most one
  /// attachment per cache.
  void AttachInvalidation(TableVersionRegistry* registry, FileId table);

  /// Drops every cached tuple in every partition (spilled ones included) and
  /// rewinds the live-partition cursor, making all partitions insertable
  /// again. Cumulative counters (inserts, max_size, spill stats) survive —
  /// only content is invalidated.
  void Clear();

  /// Inserts the tuple for `tid` under `key`.
  void Insert(int64_t key, Tid tid, Tuple tuple);

  /// Removes and returns the tuple for (`key`, `tid`), if cached. Restores
  /// the owning partition from the overflow file when it was spilled.
  std::optional<Tuple> Take(int64_t key, Tid tid);

  /// Drops all partitions whose key range lies entirely below `key` — the
  /// scan cursor has passed them. Returns the number of evicted tuples.
  uint64_t EvictBelow(int64_t key);

  /// Tuples held (resident + spilled).
  uint64_t size() const { return size_; }
  uint64_t resident_size() const { return resident_size_; }
  uint64_t max_size() const { return max_size_; }
  uint64_t inserts() const { return inserts_; }
  /// Publish-triggered Clear()s since attachment.
  uint64_t invalidations() const { return invalidations_; }
  const ResultCacheStats& spill_stats() const { return spill_stats_; }

 private:
  static uint64_t Pack(Tid tid) {
    return (static_cast<uint64_t>(tid.page_id) << 16) | tid.slot;
  }
  struct Partition {
    std::unordered_map<uint64_t, Tuple> tuples;
    bool spilled = false;
  };

  /// Partition index owning `key`.
  size_t PartitionOf(int64_t key) const;
  /// Writes one partition to the overflow file (charged) and marks it
  /// non-resident.
  void SpillPartition(size_t p);
  /// Spills furthest partitions until the resident budget is met. Never
  /// spills `keep` (the partition being inserted into).
  void MaybeSpill(size_t keep);
  /// Broker-pressure path: spills furthest partitions (skipping `keep`)
  /// until the broker drops below its global budget or nothing resident
  /// remains. Queries never fail — they just read the overflow file later.
  void SpillForPressure(size_t keep);
  void Restore(size_t p);
  /// Re-syncs the broker consumer to `resident_size_ * bytes_per_tuple`.
  void SyncBrokerCharge();
  /// Overflow-file pages for `n` tuples.
  uint32_t SpillPages(size_t n) const;

  std::vector<int64_t> separators_;
  std::vector<Partition> partitions_;
  Engine* engine_;
  ResultCacheOptions options_;
  MemoryBroker::Consumer mem_;
  ResultCacheStats spill_stats_;
  FileId spill_file_ = 0;
  bool spill_file_created_ = false;
  PageId next_spill_page_ = 0;

  size_t first_live_partition_ = 0;
  uint64_t size_ = 0;
  uint64_t resident_size_ = 0;
  uint64_t max_size_ = 0;
  uint64_t inserts_ = 0;
  uint64_t invalidations_ = 0;

  TableVersionRegistry* registry_ = nullptr;
  uint64_t hook_token_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_RESULT_CACHE_H_
