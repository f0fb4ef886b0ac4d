// TupleBatch: the unit of data flow of the vectorized execution substrate.
// Access paths and operators produce tuples in batches (default 1024) instead
// of one virtual call per tuple, amortizing dispatch, cache-state and
// CPU-meter accounting over the whole batch — the per-row CPU tax that
// dominates scan cost once I/O is sequential.
//
// Layout: one dense array of row slots, [0, size()) live. Rows are read and
// written only through slots: producers fill them in place (AppendSlot
// reuses the slot's Value storage across batches, so steady-state decode of
// fixed-width schemas performs no allocation), and consumers that keep a row
// swap it out of row(i) rather than move it, so both sides keep warm
// storage. A filter swaps its survivors into the dense prefix, and a batch
// hands its rows on to another with TakeFrom.

#ifndef SMOOTHSCAN_COMMON_TUPLE_BATCH_H_
#define SMOOTHSCAN_COMMON_TUPLE_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace smoothscan {

/// Default number of tuples per batch. 1024 keeps a batch of the
/// micro-benchmark's 10-column tuples well inside L2 while amortizing the
/// per-batch overhead to noise.
inline constexpr size_t kDefaultBatchSize = 1024;

class TupleBatch {
 public:
  /// Row slots are allocated lazily on first use, so a batch that is
  /// constructed but never filled costs nothing.
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity) {
    SMOOTHSCAN_CHECK(capacity_ > 0);
  }

  size_t capacity() const { return capacity_; }

  size_t size() const { return filled_; }
  bool empty() const { return filled_ == 0; }
  /// True when no further tuple can be appended.
  bool full() const { return filled_ >= capacity_; }

  /// Forgets all rows. Row slots keep their Value storage so the next fill
  /// cycle reuses it.
  void Clear() { filled_ = 0; }

  /// The opposite of Clear(): drops the row storage outright. Memory-
  /// governance shedding only (a BatchPool over quota) — the next fill
  /// reallocates lazily via EnsureRows.
  void ReleaseMemory() {
    filled_ = 0;
    std::vector<Tuple>().swap(rows_);
  }

  /// Returns the next slot for in-place filling and marks it live. The slot
  /// retains its previous Value storage — decode into it with
  /// Schema::DeserializeInto to avoid per-tuple allocation.
  Tuple* AppendSlot() {
    SMOOTHSCAN_CHECK(filled_ < capacity_);
    EnsureRows();
    return &rows_[filled_++];
  }

  /// Drops the most recently appended slot (a slot whose tuple failed the
  /// residual predicate after in-place decode).
  void PopLast() {
    SMOOTHSCAN_CHECK(filled_ > 0);
    --filled_;
  }

  /// Raw dense-fill API for scan kernels: decode directly into
  /// `fill_rows()[fill_begin() .. capacity())`, keeping the running count in
  /// a register, then publish it with set_filled(). Slots retain their Value
  /// storage across batches, as with AppendSlot().
  Tuple* fill_rows() {
    EnsureRows();
    return rows_.data();
  }
  size_t fill_begin() const { return filled_; }
  void set_filled(size_t n) {
    SMOOTHSCAN_CHECK(n >= filled_ && n <= capacity_);
    filled_ = n;
  }

  const Tuple& row(size_t i) const {
    SMOOTHSCAN_CHECK(i < filled_);
    return rows_[i];
  }
  Tuple& row(size_t i) {
    SMOOTHSCAN_CHECK(i < filled_);
    return rows_[i];
  }

  /// Keeps only the rows satisfying `pred`, in order, by swapping each
  /// survivor into the dense prefix: no row is copied, and the dropped
  /// rows' storage stays in the tail slots for the next fill.
  template <typename Pred>
  void Filter(Pred&& pred) {
    size_t kept = 0;
    for (size_t i = 0; i < filled_; ++i) {
      if (!pred(rows_[i])) continue;
      if (i != kept) std::swap(rows_[kept], rows_[i]);
      ++kept;
    }
    filled_ = kept;
  }

  /// Hands the rows of `src` from `*pos` on to this batch until it is full,
  /// advancing `*pos`; `src` is spent once `*pos == src->size()`. When this
  /// batch is empty, `*pos` is 0 and the capacities match, the two batches
  /// swap whole instead — buffers, not rows — which leaves `src` empty and
  /// holding this batch's old storage, warm for its owner to recycle; the
  /// call then returns true. Row by row, rows are swapped, so both batches
  /// keep warm slots.
  bool TakeFrom(TupleBatch* src, size_t* pos) {
    if (empty() && *pos == 0 && src->capacity_ == capacity_) {
      std::swap(*this, *src);
      return true;
    }
    while (*pos < src->filled_ && !full()) {
      std::swap(*AppendSlot(), src->rows_[(*pos)++]);
    }
    return false;
  }

 private:
  void EnsureRows() {
    if (rows_.size() < capacity_) rows_.resize(capacity_);
  }

  size_t capacity_;
  size_t filled_ = 0;  ///< Live rows in [0, filled_).
  std::vector<Tuple> rows_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_TUPLE_BATCH_H_
