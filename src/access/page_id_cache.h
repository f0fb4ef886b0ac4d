// Page ID Cache (Section IV-A): one bit per heap page, set once the page has
// been fully probed. Smooth Scan consults it before following an index leaf
// pointer, skipping pages it has already analyzed — the fix for the repeated
// page accesses an index scan suffers from. For a 1 M-page (8 GB) table the
// bitmap is 128 KB, matching the paper's "140 KB for LINEITEM" footprint.
//
// The bits are packed into atomic words, so one cache can be shared: by the
// morsels of a parallel Smooth Scan (each owns a disjoint page range, so no
// bit is contended and relaxed ordering suffices — which keeps the parallel
// scan deterministic) and by the queries of a shared-SmoothScan group.

#ifndef SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_
#define SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smoothscan {

class PageIdCache {
 public:
  explicit PageIdCache(size_t num_pages)
      : num_pages_(num_pages), words_((num_pages + 63) / 64) {}

  /// Sets the page's bit; returns true when this call newly marked it.
  bool Mark(PageId page) {
    SMOOTHSCAN_CHECK(page < num_pages_);
    const uint64_t bit = 1ULL << (page % 64);
    const uint64_t prev =
        words_[page / 64].fetch_or(bit, std::memory_order_relaxed);
    return (prev & bit) == 0;
  }

  bool IsMarked(PageId page) const {
    SMOOTHSCAN_CHECK(page < num_pages_);
    return (words_[page / 64].load(std::memory_order_relaxed) &
            (1ULL << (page % 64))) != 0;
  }

  size_t num_pages() const { return num_pages_; }

  /// Bitmap footprint in bytes (reported by the memory-overhead analyses).
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t num_pages_;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_PAGE_ID_CACHE_H_
