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
//
// The dispenser's one shared write is the cursor's atomic add per morsel.

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

/// Thread-safe morsel dispenser (an atomic cursor over the fixed list).
class MorselSource {
 public:
  explicit MorselSource(std::vector<Morsel> morsels)
      : morsels_(std::move(morsels)) {}

  /// Hands out the next morsel; false once the list is exhausted.
  bool Next(Morsel* out) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= morsels_.size()) return false;
    *out = morsels_[i];
    return true;
  }

  size_t size() const { return morsels_.size(); }

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
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_MORSEL_SOURCE_H_
