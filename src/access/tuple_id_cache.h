// Tuple ID Cache (Section IV-A): records the TIDs produced by the plain
// index scan that ran *before* morphing was triggered (Optimizer- or
// SLA-driven strategies) so that Smooth Scan never duplicates a result when
// it later re-reads those pages. Also used by Switch Scan across its
// index-to-full-scan seam, serial and parallel.
//
// The paper asks for a "bitmap-like" structure; this is a flat
// open-addressing set (linear probing, at most half full) of packed 48-bit
// TIDs. An insert does no allocation of its own: the slot array only doubles
// when the load would pass one half, so the set is sized by the number of
// pre-trigger results rather than by the table, and a look-up is one hash
// and a short probe over contiguous memory.

#ifndef SMOOTHSCAN_ACCESS_TUPLE_ID_CACHE_H_
#define SMOOTHSCAN_ACCESS_TUPLE_ID_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smoothscan {

/// Set of produced TIDs (see file comment).
class TupleIdCache {
 public:
  void Insert(Tid tid) {
    const uint64_t key = Pack(tid);
    if (!slots_.empty()) {
      uint64_t& slot = slots_[Probe(key)];
      if (slot == key) return;
      if ((size_ + 1) * 2 <= slots_.size()) {
        slot = key;
        ++size_;
        return;
      }
    }
    Grow();
    slots_[Probe(key)] = key;
    ++size_;
  }
  bool Contains(Tid tid) const {
    if (slots_.empty()) return false;
    const uint64_t key = Pack(tid);
    return slots_[Probe(key)] == key;
  }
  size_t size() const { return size_; }
  /// Empties the set and keeps its slot array for the next run.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  /// No packed TID sets the top 16 bits, so this marks an empty slot.
  static constexpr uint64_t kEmpty = ~0ull;

  static uint64_t Pack(Tid tid) {
    return (static_cast<uint64_t>(tid.page_id) << 16) | tid.slot;
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t Probe(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i] != key && slots_[i] != kEmpty) i = (i + 1) & mask;
    return i;
  }

  /// Doubles the slot array (64 slots at first) and re-inserts every key.
  void Grow() {
    std::vector<uint64_t> old(std::max<size_t>(64, slots_.size() * 2), kEmpty);
    old.swap(slots_);
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (const uint64_t key : old) {
      if (key != kEmpty) slots_[Probe(key)] = key;
    }
  }

  std::vector<uint64_t> slots_;  ///< Empty, or a power of two long.
  uint32_t shift_ = 64;          ///< 64 - log2(slots_.size()).
  size_t size_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_TUPLE_ID_CACHE_H_
