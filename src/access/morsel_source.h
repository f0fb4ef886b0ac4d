// Morsels: the scheduling quanta of parallel scans. A morsel is either a
// contiguous heap-page range (full-scan-shaped work) or a contiguous index
// key range (index-driven work); MorselSource is the thread-safe dispenser
// workers pull from.
//
// The morsel *decomposition* is a pure function of the data — page counts and
// key distribution — never of the degree of parallelism. Combined with
// per-morsel accounting streams (AccountingStack) this makes simulated cost
// DOP-invariant: running the same morsel list with 1, 2 or 8 workers charges
// bit-identical simulated time.

#ifndef SMOOTHSCAN_ACCESS_MORSEL_SOURCE_H_
#define SMOOTHSCAN_ACCESS_MORSEL_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace smoothscan {

/// One unit of parallel scan work. Page-range morsels use [page_begin,
/// page_end); key-range morsels use [key_lo, key_hi). `index` is the morsel's
/// position in the decomposition — accounting is merged in this order.
struct Morsel {
  uint32_t index = 0;
  PageId page_begin = 0;
  PageId page_end = 0;
  int64_t key_lo = 0;
  int64_t key_hi = 0;
};

/// Batch fill-rate telemetry aggregated across all workers of one scan cycle.
/// Mostly-empty emitted batches mean the morsel size is too small for the
/// selectivity (per-morsel flushes truncate every batch), wasting the
/// amortization a batch exists for.
struct MorselFillStats {
  uint64_t batches = 0;         ///< Non-empty batches emitted.
  uint64_t tuples = 0;          ///< Tuples across those batches.
  uint64_t capacity = 0;        ///< Summed batch capacities.
  double fill_rate() const {
    return capacity == 0 ? 0.0 : static_cast<double>(tuples) / capacity;
  }
};

/// Thread-safe morsel dispenser (an atomic cursor over the fixed list).
class MorselSource {
 public:
  explicit MorselSource(std::vector<Morsel> morsels)
      : morsels_(std::move(morsels)) {
    for (const Morsel& m : morsels_) {
      total_pages_ += m.page_end - m.page_begin;
    }
  }

  /// Hands out the next morsel; false once the list is exhausted.
  bool Next(Morsel* out) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= morsels_.size()) return false;
    *out = morsels_[i];
    return true;
  }

  size_t size() const { return morsels_.size(); }
  /// Total heap pages across page-range morsels (0 for key-range lists).
  uint64_t total_pages() const { return total_pages_; }

  /// Records one emitted batch (called by the parallel scan driver; any
  /// thread). Telemetry only — never consulted by the scan itself.
  void RecordBatchFill(size_t tuples, size_t capacity) {
    fill_batches_.fetch_add(1, std::memory_order_relaxed);
    fill_tuples_.fetch_add(tuples, std::memory_order_relaxed);
    fill_capacity_.fetch_add(capacity, std::memory_order_relaxed);
  }

  MorselFillStats fill_stats() const {
    MorselFillStats s;
    s.batches = fill_batches_.load(std::memory_order_relaxed);
    s.tuples = fill_tuples_.load(std::memory_order_relaxed);
    s.capacity = fill_capacity_.load(std::memory_order_relaxed);
    return s;
  }

  /// Advisory morsel size for the *next* scan of this shape, from the
  /// observed fill rate: pick the page count whose expected output fills
  /// `target_batches_per_morsel` batches, aligned down to the read-ahead
  /// window (never below one window). Returns `current_morsel_pages`
  /// unchanged when there is no page/tuple telemetry to extrapolate from.
  /// A hint for callers — nothing in the engine applies it automatically.
  uint32_t SuggestMorselPages(uint32_t current_morsel_pages,
                              uint32_t read_ahead_pages,
                              uint32_t target_batches_per_morsel = 4) const;

  /// Fixed-size page-range decomposition of [0, num_pages). `morsel_pages`
  /// should be a multiple of the scan's read-ahead window so parallel extent
  /// boundaries coincide with the serial scan's (bit-identical I/O charges).
  static std::vector<Morsel> PageRanges(PageId num_pages,
                                        uint32_t morsel_pages);

  /// Key-range decomposition from ascending bounds {b0, ..., bk}: morsel i
  /// covers keys [b_i, b_{i+1}).
  static std::vector<Morsel> KeyRanges(const std::vector<int64_t>& bounds);

 private:
  std::vector<Morsel> morsels_;
  std::atomic<size_t> next_{0};
  uint64_t total_pages_ = 0;
  std::atomic<uint64_t> fill_batches_{0};
  std::atomic<uint64_t> fill_tuples_{0};
  std::atomic<uint64_t> fill_capacity_{0};
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_MORSEL_SOURCE_H_
