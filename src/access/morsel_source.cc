#include "access/morsel_source.h"

#include "common/status.h"

namespace smoothscan {

std::vector<Morsel> MorselSource::PageRanges(PageId num_pages,
                                             uint32_t morsel_pages) {
  SMOOTHSCAN_CHECK(morsel_pages > 0);
  std::vector<Morsel> morsels;
  for (PageId begin = 0; begin < num_pages; begin += morsel_pages) {
    Morsel m;
    m.index = static_cast<uint32_t>(morsels.size());
    m.page_begin = begin;
    m.page_end = begin + morsel_pages < num_pages ? begin + morsel_pages
                                                  : num_pages;
    morsels.push_back(m);
  }
  return morsels;
}

std::vector<Morsel> MorselSource::KeyRanges(
    const std::vector<int64_t>& bounds) {
  std::vector<Morsel> morsels;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    SMOOTHSCAN_CHECK(bounds[i] <= bounds[i + 1]);
    if (bounds[i] == bounds[i + 1]) continue;  // Empty range.
    Morsel m;
    m.index = static_cast<uint32_t>(morsels.size());
    m.key_lo = bounds[i];
    m.key_hi = bounds[i + 1];
    morsels.push_back(m);
  }
  return morsels;
}

}  // namespace smoothscan
