// Slotted heap page, the unit of I/O throughout the system. Layout mirrors
// the classic textbook design (and PostgreSQL's): a small header, tuple data
// growing downward from the header, and a slot directory growing upward from
// the end of the page.
//
//   [ header | tuple0 tuple1 ... -> free space <- ... slot1 slot0 ]
//
// Mutation model (the write path): slots are stable addresses — Delete()
// tombstones a slot in place (its Tid never points at another tuple's bytes)
// and Update() rewrites a slot's bytes, relocating them within the page when
// the new image is larger. Dead bytes accumulate as fragmentation that
// Compact() reclaims by sliding live tuples together without renumbering any
// slot; Insert() compacts automatically when contiguous free space is short
// but reclaimable space suffices, and re-uses tombstoned slot entries before
// growing the directory.

#ifndef SMOOTHSCAN_STORAGE_PAGE_H_
#define SMOOTHSCAN_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smoothscan {

/// A fixed-size slotted page supporting insert, in-place update, tombstone
/// delete and compaction.
class Page {
 public:
  explicit Page(uint32_t page_size = kDefaultPageSize);

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  /// Inserts a serialized tuple, re-using a tombstoned slot when one exists
  /// and compacting first when fragmentation hides enough space. Returns the
  /// slot on success or kResourceExhausted when the tuple does not fit.
  Result<SlotId> Insert(const uint8_t* data, uint32_t size);

  /// Rewrites the bytes of live slot `slot`. Shrinking or same-size updates
  /// are in place; growing updates relocate within the page (compacting if
  /// needed). kResourceExhausted when the new image cannot fit — the caller
  /// must delete here and re-insert elsewhere (a moved Tid).
  Status Update(SlotId slot, const uint8_t* data, uint32_t size);

  /// Tombstones live slot `slot`. Its bytes become reclaimable
  /// fragmentation; the slot id is recycled by a later Insert.
  void Delete(SlotId slot);

  /// True when `slot` holds a live tuple (false once tombstoned).
  bool IsLive(SlotId slot) const {
    SMOOTHSCAN_CHECK(slot < num_slots());
    return ReadU16(SlotOffset(slot)) != kDeadOffset;
  }

  /// Overwrites this page's bytes with `other`'s (snapshot publish: the page
  /// object — and every pointer to it — stays put, only content changes).
  void CopyFrom(const Page& other) {
    SMOOTHSCAN_CHECK(other.bytes_.size() == bytes_.size());
    bytes_ = other.bytes_;
  }

  /// True when a tuple of `size` bytes fits without compaction.
  bool Fits(uint32_t size) const;

  /// True when a tuple of `size` bytes fits once fragmentation is compacted
  /// away (the free-space-map's notion of usable space).
  bool FitsWithCompaction(uint32_t size) const;

  /// Slides live tuples together, reclaiming fragmentation. Slot ids are
  /// preserved; only data offsets move.
  void Compact();

  uint16_t num_slots() const { return ReadU16(0); }
  /// Slots holding live tuples.
  uint16_t live_slots() const { return num_slots() - dead_slots(); }

  /// Pointer to the serialized bytes of `slot`, or nullptr (with *size = 0)
  /// for a tombstoned slot — scan loops skip dead slots on the null.
  /// Inline: this sits in the per-slot hot loop of every scan.
  const uint8_t* GetTuple(SlotId slot, uint32_t* size) const {
    SMOOTHSCAN_CHECK(slot < num_slots());
    const uint32_t off = ReadU16(SlotOffset(slot));
    if (off == kDeadOffset) {
      *size = 0;
      return nullptr;
    }
    *size = ReadU16(SlotOffset(slot) + 2);
    return bytes_.data() + off;
  }

  /// Prefetch hints for a coming look-up of `slot`; they change no result
  /// and read nothing a look-up would not. PrefetchSlot pulls the slot's
  /// directory entry toward the CPU cache; PrefetchTuple reads that entry
  /// and pulls the tuple's first bytes (issue it a few look-ups after
  /// PrefetchSlot, once the entry has arrived). Dead slots are ignored.
  void PrefetchSlot(SlotId slot) const {
    if (slot < page_size() / kSlotSize) {
      __builtin_prefetch(bytes_.data() + SlotOffset(slot));
    }
  }
  void PrefetchTuple(SlotId slot) const {
    if (slot >= page_size() / kSlotSize) return;
    const uint32_t off = ReadU16(SlotOffset(slot));
    if (off < page_size()) __builtin_prefetch(bytes_.data() + off);
  }

  uint32_t page_size() const { return static_cast<uint32_t>(bytes_.size()); }
  /// Contiguous free bytes between the data area and the slot directory.
  uint32_t free_space() const;
  /// Dead bytes reclaimable by Compact().
  uint32_t frag_bytes() const { return ReadU16(6); }
  /// Bytes an Insert can use after compaction (data only; the slot entry is
  /// accounted by Fits*).
  uint32_t usable_space() const { return free_space() + frag_bytes(); }

 private:
  // Header layout:
  //   [u16 num_slots][u32 data_end][u16 frag_bytes][u16 dead_slots].
  static constexpr uint32_t kHeaderSize = 10;
  static constexpr uint32_t kSlotSize = 4;  // [u16 offset][u16 length]
  /// Slot-offset sentinel marking a tombstoned slot (no tuple can start at
  /// the last byte of a page, and page sizes stay below 64 K).
  static constexpr uint16_t kDeadOffset = 0xFFFF;

  uint16_t ReadU16(uint32_t off) const {
    uint16_t v;
    std::memcpy(&v, bytes_.data() + off, sizeof(v));
    return v;
  }
  void WriteU16(uint32_t off, uint16_t v) {
    std::memcpy(bytes_.data() + off, &v, sizeof(v));
  }
  uint32_t ReadU32(uint32_t off) const {
    uint32_t v;
    std::memcpy(&v, bytes_.data() + off, sizeof(v));
    return v;
  }
  void WriteU32(uint32_t off, uint32_t v) {
    std::memcpy(bytes_.data() + off, &v, sizeof(v));
  }

  uint32_t data_end() const { return ReadU32(2); }
  uint16_t dead_slots() const { return ReadU16(8); }
  uint32_t SlotOffset(SlotId slot) const {
    return page_size() - kSlotSize * (static_cast<uint32_t>(slot) + 1);
  }
  /// Writes `data` at data_end under an existing slot entry.
  void PlaceTuple(SlotId slot, const uint8_t* data, uint32_t size);

  std::vector<uint8_t> bytes_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_PAGE_H_
