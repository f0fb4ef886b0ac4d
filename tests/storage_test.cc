// Unit tests for the storage substrate: slotted pages, schemas/tuples, the
// simulated disk's sequential/random classification, the LRU buffer pool
// (including a seeded differential run against a reference exact-LRU model)
// and heap files.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/engine.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/sim_disk.h"

namespace smoothscan {
namespace {

// ---------- Page ----------

TEST(PageTest, EmptyPage) {
  Page page(4096);
  EXPECT_EQ(page.num_slots(), 0);
  EXPECT_EQ(page.page_size(), 4096u);
  EXPECT_GT(page.free_space(), 4000u);
}

TEST(PageTest, InsertAndRead) {
  Page page(4096);
  const uint8_t data[] = {1, 2, 3, 4, 5};
  Result<SlotId> slot = page.Insert(data, sizeof(data));
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot.value(), 0);
  EXPECT_EQ(page.num_slots(), 1);

  uint32_t size = 0;
  const uint8_t* read = page.GetTuple(0, &size);
  ASSERT_EQ(size, sizeof(data));
  EXPECT_EQ(0, std::memcmp(read, data, size));
}

TEST(PageTest, MultipleInsertsPreserveContent) {
  Page page(4096);
  std::vector<std::vector<uint8_t>> tuples;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> t(static_cast<size_t>(rng.UniformInt(1, 40)));
    for (auto& b : t) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    ASSERT_TRUE(page.Insert(t.data(), static_cast<uint32_t>(t.size())).ok());
    tuples.push_back(std::move(t));
  }
  ASSERT_EQ(page.num_slots(), 50);
  for (SlotId s = 0; s < 50; ++s) {
    uint32_t size = 0;
    const uint8_t* data = page.GetTuple(s, &size);
    ASSERT_EQ(size, tuples[s].size());
    EXPECT_EQ(0, std::memcmp(data, tuples[s].data(), size));
  }
}

TEST(PageTest, RejectsWhenFull) {
  Page page(256);
  const std::vector<uint8_t> big(100, 7);
  ASSERT_TRUE(page.Insert(big.data(), 100).ok());
  ASSERT_TRUE(page.Insert(big.data(), 100).ok());
  // Third 100-byte tuple cannot fit in a 256-byte page with header + slots.
  Result<SlotId> r = page.Insert(big.data(), 100);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(page.num_slots(), 2);
}

TEST(PageTest, FitsIsConsistentWithInsert) {
  Page page(512);
  const std::vector<uint8_t> t(64, 1);
  while (page.Fits(64)) {
    ASSERT_TRUE(page.Insert(t.data(), 64).ok());
  }
  EXPECT_FALSE(page.Insert(t.data(), 64).ok());
}

// ---------- Schema / tuple serialization ----------

TEST(SchemaTest, FixedWidthRoundTrip) {
  const Schema schema = MakeIntSchema(3);
  const Tuple t = {Value::Int64(1), Value::Int64(-2), Value::Int64(3)};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  EXPECT_EQ(buf.size(), 24u);
  EXPECT_EQ(schema.SerializedSize(t), 24u);
  const Tuple back = schema.Deserialize(buf.data(),
                                        static_cast<uint32_t>(buf.size()));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, MixedTypesRoundTrip) {
  const Schema schema({{"a", ValueType::kInt64},
                       {"b", ValueType::kDouble},
                       {"c", ValueType::kString},
                       {"d", ValueType::kDate},
                       {"e", ValueType::kString}});
  const Tuple t = {Value::Int64(-9), Value::Double(2.5),
                   Value::String("smooth"), Value::Date(8035),
                   Value::String("")};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  const Tuple back = schema.Deserialize(buf.data(),
                                        static_cast<uint32_t>(buf.size()));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, DeserializeColumnSkipsVariableFields) {
  const Schema schema({{"a", ValueType::kString},
                       {"b", ValueType::kInt64},
                       {"c", ValueType::kString}});
  const Tuple t = {Value::String("abcdef"), Value::Int64(77),
                   Value::String("xy")};
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  const uint32_t size = static_cast<uint32_t>(buf.size());
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 0).AsString(), "abcdef");
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 1).AsInt64(), 77);
  EXPECT_EQ(schema.DeserializeColumn(buf.data(), size, 2).AsString(), "xy");
}

TEST(SchemaTest, FindColumn) {
  const Schema schema = MakeIntSchema(4);
  EXPECT_EQ(schema.FindColumn("c1"), 0);
  EXPECT_EQ(schema.FindColumn("c4"), 3);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
}

TEST(SchemaTest, IsFixedWidth) {
  EXPECT_TRUE(MakeIntSchema(2).IsFixedWidth());
  EXPECT_FALSE(Schema({{"s", ValueType::kString}}).IsFixedWidth());
}

// ---------- SimDisk ----------

TEST(SimDiskTest, FirstAccessIsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 0u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 10.0);
}

TEST(SimDiskTest, AdjacentNextPageIsSequential) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 6);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 11.0);
}

TEST(SimDiskTest, BackwardAccessIsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 4);   // Backward.
  disk.ReadPage(0, 4);   // Repeat (not a forward move).
  EXPECT_EQ(disk.stats().random_ios, 3u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 30.0);
}

TEST(SimDiskTest, ShortForwardSkipCostsPassedPages) {
  // A forward skip cheaper than a seek is charged the transfer time of the
  // passed-over pages — the nearly sequential pattern of a sorted-TID scan.
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);            // Random: 10.
  disk.ReadPage(0, 8);            // Forward skip of 3 pages: 3 * seq = 3.
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 13.0);
}

TEST(SimDiskTest, LongForwardSkipIsASeek) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 5);
  disk.ReadPage(0, 500);  // 495-page skip: a seek (10) is cheaper.
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 20.0);
}

TEST(SimDiskTest, SkipEqualToSeekCountsAsRandom) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(0, 10);  // Skip cost 10 == rand cost 10: not cheaper.
  EXPECT_EQ(disk.stats().random_ios, 2u);
}

TEST(SimDiskTest, PositionsTrackedPerFile) {
  // Interleaved streams on different files stay sequential, matching the
  // paper's model where leaf traversal is sequential while heap look-ups
  // interleave (Eq. 11).
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(1, 0);
  disk.ReadPage(0, 1);
  disk.ReadPage(1, 1);
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_EQ(disk.stats().seq_ios, 2u);
}

TEST(SimDiskTest, ExtentReadIsOneRequest) {
  SimDisk disk(DeviceProfile::Hdd(), 8192);
  disk.ReadExtent(0, 10, 16);
  EXPECT_EQ(disk.stats().io_requests, 1u);
  EXPECT_EQ(disk.stats().pages_read, 16u);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 15u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 10.0 + 15.0);
  EXPECT_EQ(disk.stats().bytes_read, 16u * 8192u);
}

TEST(SimDiskTest, ExtentContinuationIsSequential) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadExtent(0, 0, 8);
  disk.ReadExtent(0, 8, 8);
  EXPECT_EQ(disk.stats().random_ios, 1u);
  EXPECT_EQ(disk.stats().seq_ios, 15u);
}

TEST(SimDiskTest, SsdProfileRatio) {
  SimDisk disk(DeviceProfile::Ssd());
  disk.ReadPage(0, 3);
  disk.ReadPage(0, 4);
  EXPECT_DOUBLE_EQ(disk.stats().io_time, 2.0 + 1.0);
}

TEST(SimDiskTest, ResetPositionsKeepsCounters) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  disk.ReadPage(0, 1);
  disk.ResetPositions();
  disk.ReadPage(0, 2);  // Would be sequential without the reset.
  EXPECT_EQ(disk.stats().random_ios, 2u);
  EXPECT_EQ(disk.stats().seq_ios, 1u);
}

TEST(SimDiskTest, StatsDiffOperator) {
  SimDisk disk(DeviceProfile::Hdd());
  disk.ReadPage(0, 0);
  const IoStats snap = disk.stats();
  disk.ReadPage(0, 1);
  const IoStats d = disk.stats() - snap;
  EXPECT_EQ(d.seq_ios, 1u);
  EXPECT_EQ(d.random_ios, 0u);
  EXPECT_DOUBLE_EQ(d.io_time, 1.0);
}

// ---------- BufferPool ----------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : storage_(8192), disk_(DeviceProfile::Hdd(), 8192) {
    file_ = storage_.CreateFile("t");
    for (int i = 0; i < 64; ++i) storage_.AppendPage(file_);
  }

  StorageManager storage_;
  SimDisk disk_;
  FileId file_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&storage_, &disk_, 16);
  pool.Fetch(file_, 3);
  EXPECT_EQ(pool.stats().misses, 1u);
  const double t = disk_.stats().io_time;
  pool.Fetch(file_, 3);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(disk_.stats().io_time, t);  // Hit is free.
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  // A single shard pins the exact global-LRU eviction order (morsel-local
  // pools are built this way); the sharded default only promises per-shard
  // LRU within the aggregate capacity bound.
  BufferPool pool(&storage_, &disk_, 2, /*num_shards=*/1);
  pool.Fetch(file_, 0);
  pool.Fetch(file_, 1);
  pool.Fetch(file_, 0);  // 0 is now MRU.
  pool.Fetch(file_, 2);  // Evicts 1.
  EXPECT_TRUE(pool.Contains(file_, 0));
  EXPECT_FALSE(pool.Contains(file_, 1));
  EXPECT_TRUE(pool.Contains(file_, 2));
}

TEST_F(BufferPoolTest, PinBlocksEvictionUntilReleased) {
  BufferPool pool(&storage_, &disk_, 2, /*num_shards=*/1);
  PageGuard guard = pool.Fetch(file_, 0);  // Pinned: LRU but unevictable.
  pool.Fetch(file_, 1);
  pool.Fetch(file_, 2);  // Must evict 1, not the pinned 0.
  EXPECT_TRUE(pool.Contains(file_, 0));
  EXPECT_FALSE(pool.Contains(file_, 1));
  EXPECT_TRUE(pool.Contains(file_, 2));
  guard.Release();
  pool.Fetch(file_, 3);  // 0 is LRU and now unpinned: evicted.
  EXPECT_FALSE(pool.Contains(file_, 0));
}

TEST_F(BufferPoolTest, GuardKeepsPageReadableAcrossFlush) {
  BufferPool pool(&storage_, &disk_, 16);
  PageGuard guard = pool.Fetch(file_, 7);
  EXPECT_EQ(pool.FlushAll(), 1u);  // Skip + report, never invalidate.
  EXPECT_TRUE(pool.Contains(file_, 7));
  EXPECT_EQ(guard->num_slots(), 0u);  // Still dereferenceable.
  guard.Release();
  EXPECT_EQ(pool.FlushAll(), 0u);
  EXPECT_FALSE(pool.Contains(file_, 7));
}

TEST_F(BufferPoolTest, PinnedPagesCounted) {
  BufferPool pool(&storage_, &disk_, 16);
  PageGuard a = pool.Fetch(file_, 1);
  PageGuard b = pool.Pin(file_, 2);
  EXPECT_EQ(pool.pinned_pages(), 2u);
  PageGuard moved = std::move(a);
  EXPECT_EQ(pool.pinned_pages(), 2u);  // Moving transfers, not duplicates.
  moved.Release();
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, PinDoesNotChargeOrCount) {
  BufferPool pool(&storage_, &disk_, 16);
  const double t = disk_.stats().io_time;
  PageGuard g = pool.Pin(file_, 3);
  EXPECT_DOUBLE_EQ(disk_.stats().io_time, t);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
}

TEST_F(BufferPoolTest, ShardedCapacityBoundRespected) {
  BufferPool pool(&storage_, &disk_, 8);  // Default shard count.
  for (PageId p = 0; p < 64; ++p) pool.Fetch(file_, p);
  EXPECT_LE(pool.size(), 8u);
}

TEST_F(BufferPoolTest, FlushAllMakesNextAccessCold) {
  BufferPool pool(&storage_, &disk_, 16);
  pool.Fetch(file_, 5);
  pool.FlushAll();
  EXPECT_EQ(pool.size(), 0u);
  pool.Fetch(file_, 5);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST_F(BufferPoolTest, FetchExtentLoadsAllPages) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.FetchExtent(file_, 4, 8);
  for (PageId p = 4; p < 12; ++p) EXPECT_TRUE(pool.Contains(file_, p));
  EXPECT_EQ(disk_.stats().io_requests, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 8u);
}

TEST_F(BufferPoolTest, FetchExtentTrimsResidentEnds) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.Fetch(file_, 4);
  pool.Fetch(file_, 11);
  const IoStats before = disk_.stats();
  pool.FetchExtent(file_, 4, 8);  // 4 and 11 resident: transfer 5..10.
  const IoStats d = disk_.stats() - before;
  EXPECT_EQ(d.pages_read, 6u);
  EXPECT_EQ(d.io_requests, 1u);
}

TEST_F(BufferPoolTest, FetchExtentFullyResidentIsFree) {
  BufferPool pool(&storage_, &disk_, 32);
  pool.FetchExtent(file_, 0, 4);
  const IoStats before = disk_.stats();
  pool.FetchExtent(file_, 0, 4);
  const IoStats d = disk_.stats() - before;
  EXPECT_EQ(d.io_requests, 0u);
  EXPECT_EQ(d.pages_read, 0u);
}

TEST_F(BufferPoolTest, CapacityBoundRespected) {
  BufferPool pool(&storage_, &disk_, 8);
  for (PageId p = 0; p < 64; ++p) pool.Fetch(file_, p);
  EXPECT_LE(pool.size(), 8u);
}

// ---------- Mirror (multi-query shared-pool residency) ----------

TEST_F(BufferPoolTest, MirrorPinsFollowLocalGuards) {
  SimDisk shared_disk;
  BufferPool shared(&storage_, &shared_disk, 32);
  BufferPool local(&storage_, &disk_, 16, /*num_shards=*/1);
  local.SetMirror(&shared);

  const double shared_io = shared_disk.stats().io_time;
  {
    PageGuard fetched = local.Fetch(file_, 3);
    PageGuard pinned = local.Pin(file_, 5);
    // Both pages land pinned in the mirror, charged only to the local disk.
    EXPECT_TRUE(shared.Contains(file_, 3));
    EXPECT_TRUE(shared.Contains(file_, 5));
    EXPECT_EQ(shared.pinned_pages(), 2u);
    EXPECT_EQ(shared.FlushAll(), 2u);  // Pinned: skip + report.
    EXPECT_TRUE(shared.Contains(file_, 3));
  }
  // Guards gone: mirror pins released symmetrically, residency stays.
  EXPECT_EQ(shared.pinned_pages(), 0u);
  EXPECT_TRUE(shared.Contains(file_, 3));
  // The mirror never does accounting of its own.
  EXPECT_DOUBLE_EQ(shared_disk.stats().io_time, shared_io);
  EXPECT_EQ(shared.stats().hits + shared.stats().misses, 0u);
}

TEST_F(BufferPoolTest, MirrorSeesExtentResidency) {
  SimDisk shared_disk;
  BufferPool shared(&storage_, &shared_disk, 32);
  BufferPool local(&storage_, &disk_, 16, /*num_shards=*/1);
  local.SetMirror(&shared);
  local.FetchExtent(file_, 2, 4);
  for (PageId p = 2; p < 6; ++p) EXPECT_TRUE(shared.Contains(file_, p));
  EXPECT_EQ(shared.pinned_pages(), 0u);  // Extents take no pins anywhere.
  EXPECT_EQ(shared_disk.stats().io_requests, 0u);
}

// ---------- BufferPool vs. a reference exact-LRU model ----------

/// The pool's contract restated the plain way: per shard a std::list in LRU
/// order (front = most recent) and a std::map from key to entry. Every I/O
/// the pool must charge is replayed in the same order on the model's own
/// SimDisk, so the two disks' stats must agree exactly.
class RefPool {
 public:
  RefPool(size_t capacity, uint32_t num_shards)
      : disk_(DeviceProfile::Hdd(), 8192) {
    const size_t shards = std::min<size_t>(num_shards, capacity);
    for (size_t i = 0; i < shards; ++i) {
      shards_.emplace_back();
      shards_.back().capacity =
          capacity / shards + (i < capacity % shards ? 1 : 0);
    }
  }

  void SetMirror(RefPool* mirror) { mirror_ = mirror; }
  SimDisk& disk() { return disk_; }

  void Fetch(uint64_t key) {
    Shard& s = ShardFor(key);
    const bool miss = s.map.count(key) == 0;
    ++(miss ? stats_.misses : stats_.hits);
    TakePin(key);
    if (miss) disk_.ReadPage(FileOf(key), PageOf(key));
    if (mirror_ != nullptr) mirror_->TakePin(key);
  }
  void Pin(uint64_t key) {
    TakePin(key);
    if (mirror_ != nullptr) mirror_->TakePin(key);
  }
  /// A look-up is a Fetch and an immediate release.
  void Lookup(uint64_t key) {
    Fetch(key);
    Unpin(key);
  }
  bool PinIfResident(uint64_t key) {
    Shard& s = ShardFor(key);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    ++it->second.pins;
    if (mirror_ != nullptr) mirror_->TakePin(key);
    return true;
  }
  void Unpin(uint64_t key) {
    --ShardFor(key).map.at(key).pins;
    if (mirror_ != nullptr) --mirror_->ShardFor(key).map.at(key).pins;
  }
  void FetchExtent(FileId file, PageId first, uint32_t n) {
    if (n == 0) return;
    if (mirror_ != nullptr) {
      for (uint32_t i = 0; i < n; ++i) mirror_->Touch(Key(file, first + i));
    }
    auto touch_if_resident = [&](PageId p) {
      Shard& s = ShardFor(Key(file, p));
      auto it = s.map.find(Key(file, p));
      if (it == s.map.end()) return false;
      ++stats_.hits;
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return true;
    };
    PageId lo = first;
    PageId hi = first + n - 1;
    while (lo <= hi && touch_if_resident(lo)) ++lo;
    while (hi >= lo && touch_if_resident(hi)) {
      if (hi == 0) break;
      --hi;
    }
    if (lo > hi) return;
    disk_.ReadExtent(file, lo, hi - lo + 1);
    for (PageId p = lo; p <= hi; ++p) {
      const uint64_t key = Key(file, p);
      if (ShardFor(key).map.count(key) == 0) ++stats_.misses;
      Touch(key);
    }
  }
  void MarkDirty(uint64_t key) {
    Touch(key);
    ShardFor(key).map.at(key).dirty = true;
  }
  bool FlushPage(uint64_t key) {
    Shard& s = ShardFor(key);
    auto it = s.map.find(key);
    if (it == s.map.end() || !it->second.dirty) return false;
    it->second.dirty = false;
    ++stats_.write_backs;
    disk_.WritePage(FileOf(key), PageOf(key));
    return true;
  }
  size_t FlushAll() {
    size_t pinned = 0;
    std::vector<uint64_t> write_back;
    for (Shard& s : shards_) {
      for (auto it = s.map.begin(); it != s.map.end();) {
        if (it->second.pins > 0) {
          ++pinned;
          ++it;
          continue;
        }
        if (it->second.dirty) write_back.push_back(it->first);
        s.lru.erase(it->second.lru_it);
        it = s.map.erase(it);
      }
    }
    stats_.write_backs += write_back.size();
    std::sort(write_back.begin(), write_back.end());
    for (size_t i = 0; i < write_back.size();) {
      size_t j = i + 1;
      while (j < write_back.size() && write_back[j] == write_back[j - 1] + 1 &&
             FileOf(write_back[j]) == FileOf(write_back[i])) {
        ++j;
      }
      disk_.WriteExtent(FileOf(write_back[i]), PageOf(write_back[i]),
                        static_cast<uint32_t>(j - i));
      i = j;
    }
    return pinned;
  }
  bool FileHasPins(FileId file) const {
    for (const Shard& s : shards_) {
      for (const auto& [key, e] : s.map) {
        if (FileOf(key) == file && e.pins > 0) return true;
      }
    }
    return false;
  }
  size_t EvictFile(FileId file) {
    size_t dropped = 0;
    std::vector<uint64_t> write_back;
    for (Shard& s : shards_) {
      for (auto it = s.map.begin(); it != s.map.end();) {
        if (FileOf(it->first) != file) {
          ++it;
          continue;
        }
        if (it->second.dirty) write_back.push_back(it->first);
        s.lru.erase(it->second.lru_it);
        it = s.map.erase(it);
        ++dropped;
      }
    }
    stats_.write_backs += write_back.size();
    std::sort(write_back.begin(), write_back.end());
    for (const uint64_t key : write_back) {
      disk_.WritePage(FileOf(key), PageOf(key));
    }
    return dropped;
  }

  bool Contains(uint64_t key) const { return ShardFor(key).map.count(key); }
  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.map.size();
    return n;
  }
  uint64_t pinned_pages() const { return CountIf(true); }
  uint64_t dirty_pages() const { return CountIf(false); }
  const BufferPoolStats& stats() const { return stats_; }

  static uint64_t Key(FileId file, PageId page) {
    return (static_cast<uint64_t>(file) << 32) | page;
  }
  static FileId FileOf(uint64_t key) { return static_cast<FileId>(key >> 32); }
  static PageId PageOf(uint64_t key) { return static_cast<PageId>(key); }

 private:
  struct Entry {
    std::list<uint64_t>::iterator lru_it;
    uint32_t pins = 0;
    bool dirty = false;
  };
  struct Shard {
    size_t capacity = 0;
    std::list<uint64_t> lru;
    std::map<uint64_t, Entry> map;
  };

  Shard& ShardFor(uint64_t key) {
    return shards_[PageOf(key) % shards_.size()];
  }
  const Shard& ShardFor(uint64_t key) const {
    return shards_[PageOf(key) % shards_.size()];
  }
  uint64_t CountIf(bool pinned) const {
    uint64_t n = 0;
    for (const Shard& s : shards_) {
      for (const auto& [key, e] : s.map) n += pinned ? e.pins > 0 : e.dirty;
    }
    return n;
  }

  /// Insert-or-touch `key` as most recently used; on insert into a full
  /// shard, evicts the least recently used unpinned entry (at most one;
  /// none when every entry is pinned), writing a dirty victim back.
  void Touch(uint64_t key) {
    Shard& s = ShardFor(key);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return;
    }
    uint64_t write_back = 0;
    bool wrote = false;
    if (s.map.size() >= s.capacity) {
      for (auto v = s.lru.rbegin(); v != s.lru.rend(); ++v) {
        auto victim = s.map.find(*v);
        if (victim->second.pins > 0) continue;
        if (victim->second.dirty) {
          write_back = *v;
          wrote = true;
          ++stats_.write_backs;
        }
        s.lru.erase(std::next(v).base());
        s.map.erase(victim);
        break;
      }
    }
    s.lru.push_front(key);
    s.map[key] = Entry{s.lru.begin(), 0, false};
    if (wrote) disk_.WritePage(FileOf(write_back), PageOf(write_back));
  }
  void TakePin(uint64_t key) {
    Touch(key);
    ++ShardFor(key).map.at(key).pins;
  }

  SimDisk disk_;
  std::vector<Shard> shards_;
  RefPool* mirror_ = nullptr;
  BufferPoolStats stats_;
};

/// Runs one seeded operation sequence against a BufferPool and the
/// reference model. Returns "" when they agree at every step, else a
/// one-line repro naming the seed, configuration, step and mismatch.
/// `*overflowed` reports whether the pool ever held more pages than its
/// capacity (every frame pinned). An `extended` run also draws Lookup, grows
/// files mid-run through AppendPage (marking the page about to be appended
/// dirty first, as a writer publishing an era page would), and spreads each
/// pool over 1, 3, 5 or 8 shards; the other runs draw exactly the sequence
/// they always did. Files start with `file_pages` pages: wide files make the
/// page maps extend their ranges up and down many times.
std::string RunPoolDifferential(uint64_t seed, bool extended,
                                bool* overflowed, PageId file_pages = 12) {
  Rng rng(seed);
  constexpr FileId kFiles = 3;
  const PageId kPages = file_pages;
  const PageId kMaxPages = kPages + 28;  // Growth cap of extended runs.
  StorageManager storage(8192);
  for (FileId f = 0; f < kFiles; ++f) {
    const FileId id = storage.CreateFile("f" + std::to_string(f));
    for (PageId p = 0; p < kPages; ++p) storage.AppendPage(id);
  }
  auto draw_shards = [&]() -> uint32_t {
    if (!extended) return rng.Bernoulli(0.5) ? 1 : 8;
    constexpr uint32_t kShards[] = {1, 3, 5, 8};
    return kShards[rng.UniformInt(0, 3)];
  };
  const size_t capacity = static_cast<size_t>(rng.UniformInt(1, 9));
  const uint32_t shards = draw_shards();
  const bool mirrored = seed % 2 == 1;
  const size_t mirror_capacity = static_cast<size_t>(rng.UniformInt(1, 9));
  const uint32_t mirror_shards = draw_shards();
  // Pin-heavy runs hold many guards and rarely release them, so every frame
  // ends up pinned and the shard overflows its capacity ("pins win").
  const bool pin_heavy = seed % 3 == 0;

  SimDisk disk(DeviceProfile::Hdd(), 8192);
  SimDisk mirror_disk(DeviceProfile::Hdd(), 8192);
  BufferPool pool(&storage, &disk, capacity, shards);
  BufferPool mirror_pool(&storage, &mirror_disk, mirror_capacity,
                         mirror_shards);
  RefPool ref(capacity, shards);
  RefPool ref_mirror(mirror_capacity, mirror_shards);
  if (mirrored) {
    pool.SetMirror(&mirror_pool);
    ref.SetMirror(&ref_mirror);
  }

  struct Held {
    bool on_mirror;
    uint64_t key;
    PageGuard guard;
  };
  std::vector<Held> held;
  std::set<uint64_t> touched;

  std::ostringstream config;
  config << "seed=" << seed << " capacity=" << capacity << " shards=" << shards
         << " mirror=" << (mirrored ? 1 : 0) << " mirror_capacity="
         << mirror_capacity << " mirror_shards=" << mirror_shards
         << " pin_heavy=" << (pin_heavy ? 1 : 0)
         << " extended=" << (extended ? 1 : 0);

  auto same_stats = [](const BufferPoolStats& a, const BufferPoolStats& b) {
    return a.hits == b.hits && a.misses == b.misses &&
           a.write_backs == b.write_backs;
  };
  auto same_io = [](const IoStats& a, const IoStats& b) {
    return a.random_ios == b.random_ios && a.seq_ios == b.seq_ios &&
           a.io_requests == b.io_requests && a.pages_read == b.pages_read &&
           a.pages_written == b.pages_written && a.io_time == b.io_time;
  };
  // First mismatch between a pool and its model, or "".
  auto compare = [&](const BufferPool& p, RefPool& r,
                     const char* which) -> std::string {
    std::ostringstream why;
    for (const uint64_t key : touched) {
      const bool has = p.Contains(RefPool::FileOf(key), RefPool::PageOf(key));
      if (has != r.Contains(key)) {
        why << which << " Contains(" << RefPool::FileOf(key) << ","
            << RefPool::PageOf(key) << ")=" << has;
        return why.str();
      }
    }
    if (p.size() != r.size()) {
      why << which << " size " << p.size() << " vs " << r.size();
    } else if (p.pinned_pages() != r.pinned_pages()) {
      why << which << " pinned " << p.pinned_pages() << " vs "
          << r.pinned_pages();
    } else if (p.dirty_pages() != r.dirty_pages()) {
      why << which << " dirty " << p.dirty_pages() << " vs "
          << r.dirty_pages();
    } else if (!same_stats(p.stats(), r.stats())) {
      why << which << " stats hits/misses/write_backs " << p.stats().hits
          << "/" << p.stats().misses << "/" << p.stats().write_backs << " vs "
          << r.stats().hits << "/" << r.stats().misses << "/"
          << r.stats().write_backs;
    }
    return why.str();
  };

  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    const FileId file = static_cast<FileId>(rng.UniformInt(0, kFiles - 1));
    const PageId pages = static_cast<PageId>(storage.NumPages(file));
    const PageId page = static_cast<PageId>(rng.UniformInt(0, pages - 1));
    const uint64_t key = RefPool::Key(file, page);
    // Unmirrored runs still drive the second pool on its own, so dirty
    // eviction write-backs show up on both shapes.
    const bool on_mirror = rng.Bernoulli(0.15);
    BufferPool& target = on_mirror ? mirror_pool : pool;
    RefPool& model = on_mirror ? ref_mirror : ref;
    std::ostringstream op;
    std::string mismatch;
    const int64_t kind = rng.UniformInt(0, extended ? 11 : 9);
    const double keep = pin_heavy ? 0.9 : 0.4;
    switch (kind) {
      case 0:
      case 1: {
        op << "Fetch(" << file << "," << page << ")";
        PageGuard g = target.Fetch(file, page);
        model.Fetch(key);
        if (rng.Bernoulli(keep)) {
          held.push_back({on_mirror, key, std::move(g)});
        } else {
          model.Unpin(key);
        }
        break;
      }
      case 2: {
        op << "Pin(" << file << "," << page << ")";
        PageGuard g = target.Pin(file, page);
        model.Pin(key);
        if (rng.Bernoulli(keep)) {
          held.push_back({on_mirror, key, std::move(g)});
        } else {
          model.Unpin(key);
        }
        break;
      }
      case 3: {
        op << "PinIfResident(" << file << "," << page << ")";
        PageGuard g = target.PinIfResident(file, page);
        const bool pinned = model.PinIfResident(key);
        if (static_cast<bool>(g) != pinned) {
          mismatch = "PinIfResident returned " + std::to_string(bool(g));
        } else if (pinned) {
          if (rng.Bernoulli(keep)) {
            held.push_back({on_mirror, key, std::move(g)});
          } else {
            model.Unpin(key);
          }
        }
        break;
      }
      case 4: {
        const uint32_t n =
            static_cast<uint32_t>(rng.UniformInt(0, pages - page));
        op << "FetchExtent(" << file << "," << page << "," << n << ")";
        target.FetchExtent(file, page, n);
        model.FetchExtent(file, page, n);
        for (uint32_t i = 0; i < n; ++i) {
          touched.insert(RefPool::Key(file, page + i));
        }
        break;
      }
      case 5:
        op << "MarkDirty(" << file << "," << page << ")";
        target.MarkDirty(file, page);
        model.MarkDirty(key);
        break;
      case 6: {
        op << "FlushPage(" << file << "," << page << ")";
        const bool a = target.FlushPage(file, page);
        if (a != model.FlushPage(key)) {
          mismatch = "FlushPage returned " + std::to_string(a);
        }
        break;
      }
      case 7: {
        if (rng.Bernoulli(0.7)) {
          op << "FlushAll";
          const size_t a = target.FlushAll();
          const size_t b = model.FlushAll();
          if (a != b) {
            mismatch = "FlushAll returned " + std::to_string(a) + " vs " +
                       std::to_string(b);
          }
        } else {
          op << "EvictFile(" << file << ")";
          if (model.FileHasPins(file)) break;  // Callers quiesce first.
          const size_t a = target.EvictFile(file);
          const size_t b = model.EvictFile(file);
          if (a != b) {
            mismatch = "EvictFile returned " + std::to_string(a) + " vs " +
                       std::to_string(b);
          }
        }
        break;
      }
      case 10:
        op << "Lookup(" << file << "," << page << ")";
        target.Lookup(file, page);
        model.Lookup(key);
        break;
      case 11: {
        if (pages >= kMaxPages) break;
        // The page about to be appended, dirty in the pool before the file
        // holds it; then the file grows and a look-up reaches the new page.
        const uint64_t next = RefPool::Key(file, pages);
        op << "MarkDirty(" << file << "," << pages << ")+AppendPage+Lookup";
        target.MarkDirty(file, pages);
        model.MarkDirty(next);
        storage.AppendPage(file);
        target.Lookup(file, pages);
        model.Lookup(next);
        touched.insert(next);
        break;
      }
      default: {
        op << "Release";
        if (held.empty() || rng.Bernoulli(pin_heavy ? 0.8 : 0.0)) break;
        const size_t i =
            static_cast<size_t>(rng.UniformInt(0, held.size() - 1));
        (held[i].on_mirror ? ref_mirror : ref).Unpin(held[i].key);
        held[i].guard.Release();
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    touched.insert(key);
    if (pool.size() > capacity) *overflowed = true;
    if (mismatch.empty()) mismatch = compare(pool, ref, "pool");
    if (mismatch.empty()) mismatch = compare(mirror_pool, ref_mirror, "mirror");
    if (mismatch.empty() && !same_io(disk.stats(), ref.disk().stats())) {
      mismatch = "pool SimDisk stats differ";
    }
    if (mismatch.empty() &&
        !same_io(mirror_disk.stats(), ref_mirror.disk().stats())) {
      mismatch = "mirror SimDisk stats differ";
    }
    if (!mismatch.empty()) {
      std::ostringstream repro;
      repro << "repro: " << config.str() << " step=" << step << " op="
            << (on_mirror ? "mirror." : "") << op.str() << ": " << mismatch;
      return repro.str();
    }
  }
  // Release in both before the pools go away.
  for (Held& h : held) h.guard.Release();
  return "";
}

TEST(BufferPoolDifferentialTest, MatchesReferenceLruOverSeededRuns) {
  int overflow_runs = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    bool overflowed = false;
    const std::string failure =
        RunPoolDifferential(seed, /*extended=*/false, &overflowed);
    ASSERT_EQ(failure, "");
    overflow_runs += overflowed;
  }
  // The pin-heavy seeds really drove shards past capacity.
  EXPECT_GT(overflow_runs, 20);
  // Look-ups, files that grow mid-run and shard counts that are not a power
  // of two.
  for (uint64_t seed = 401; seed <= 800; ++seed) {
    bool overflowed = false;
    const std::string failure =
        RunPoolDifferential(seed, /*extended=*/true, &overflowed);
    ASSERT_EQ(failure, "");
  }
  // Files of 600 pages, whose page maps extend their ranges in both
  // directions at every shard count.
  for (uint64_t seed = 801; seed <= 900; ++seed) {
    bool overflowed = false;
    const std::string failure = RunPoolDifferential(
        seed, /*extended=*/true, &overflowed, /*file_pages=*/600);
    ASSERT_EQ(failure, "");
  }
}

// ---------- HeapFile ----------

TEST(HeapFileTest, AppendAndReadBack) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(2));
  Result<Tid> tid = heap.Append({Value::Int64(5), Value::Int64(6)});
  ASSERT_TRUE(tid.ok());
  const Tuple t = heap.Read(tid.value());
  EXPECT_EQ(t[0].AsInt64(), 5);
  EXPECT_EQ(t[1].AsInt64(), 6);
}

TEST(HeapFileTest, SpillsAcrossPages) {
  EngineOptions options;
  options.page_size = 512;
  Engine engine(options);
  HeapFile heap(&engine, "t", MakeIntSchema(4));  // 32-byte tuples.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i), Value::Int64(0), Value::Int64(0),
                             Value::Int64(0)})
                    .ok());
  }
  EXPECT_GT(heap.num_pages(), 5u);
  EXPECT_EQ(heap.num_tuples(), 100u);
}

TEST(HeapFileTest, ForEachDirectVisitsEverythingInOrder) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i)}).ok());
  }
  int64_t expected = 0;
  heap.ForEachDirect([&](Tid, const Tuple& t) {
    EXPECT_EQ(t[0].AsInt64(), expected);
    ++expected;
  });
  EXPECT_EQ(expected, 1000);
}

TEST(HeapFileTest, ForEachDirectIsNotAccounted) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(heap.Append({Value::Int64(i)}).ok());
  }
  const double io = engine.disk().stats().io_time;
  heap.ForEachDirect([](Tid, const Tuple&) {});
  EXPECT_DOUBLE_EQ(engine.disk().stats().io_time, io);
}

TEST(HeapFileTest, ReadIsAccounted) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  Result<Tid> tid = heap.Append({Value::Int64(1)});
  ASSERT_TRUE(tid.ok());
  engine.ColdRestart();
  const double io = engine.disk().stats().io_time;
  heap.Read(tid.value());
  EXPECT_GT(engine.disk().stats().io_time, io);
}

TEST(EngineTest, ColdRestartFlushesPool) {
  Engine engine;
  HeapFile heap(&engine, "t", MakeIntSchema(1));
  ASSERT_TRUE(heap.Append({Value::Int64(1)}).ok());
  heap.Read(Tid{0, 0});
  EXPECT_GT(engine.pool().size(), 0u);
  engine.ColdRestart();
  EXPECT_EQ(engine.pool().size(), 0u);
}

}  // namespace
}  // namespace smoothscan
