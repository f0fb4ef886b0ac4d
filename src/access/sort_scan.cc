#include "access/sort_scan.h"

#include <algorithm>

namespace smoothscan {

namespace {

/// Coalesced extent starting at `tids[i]` within `tids[i, end)`: the entries
/// sharing one physical request because each targets the same or the next
/// page, capped at kSortScanChunkPages.
struct SortedTidExtent {
  size_t last_entry = 0;   ///< Last entry index covered (inclusive).
  uint32_t num_pages = 0;  ///< Distinct pages spanned, from tids[i].page_id.
};

SortedTidExtent CoalesceSortedTidExtent(const std::vector<Tid>& tids,
                                        size_t i, size_t end) {
  SortedTidExtent extent;
  size_t j = i;
  const PageId first_page = tids[i].page_id;
  PageId last_page = first_page;
  extent.num_pages = 1;
  while (j + 1 < end &&
         (tids[j + 1].page_id == last_page ||
          tids[j + 1].page_id == last_page + 1) &&
         tids[j + 1].page_id - first_page < kSortScanChunkPages) {
    if (tids[j + 1].page_id == last_page + 1) {
      ++extent.num_pages;
      last_page = tids[j + 1].page_id;
    }
    ++j;
  }
  extent.last_entry = j;
  return extent;
}

/// One stable counting-sort pass: `from` ordered by `digit` (< buckets) into
/// `to`, which has from's size. `counts` is reused scratch.
template <typename Digit>
void CountingSortPass(const std::vector<Tid>& from, Digit digit,
                      size_t buckets, std::vector<size_t>* counts,
                      std::vector<Tid>* to) {
  counts->assign(buckets + 1, 0);
  for (const Tid& tid : from) ++(*counts)[digit(tid) + 1];
  for (size_t b = 1; b <= buckets; ++b) (*counts)[b] += (*counts)[b - 1];
  for (const Tid& tid : from) (*to)[(*counts)[digit(tid)]++] = tid;
}

}  // namespace

std::vector<Tid> CollectSortedTids(const BPlusTree* index,
                                   const ScanPredicate& predicate,
                                   const ExecContext& ctx) {
  std::vector<Tid> tids;
  tids.reserve(index->CountRange(predicate.lo, predicate.hi));
  PageId max_page = 0;
  SlotId max_slot = 0;
  for (BPlusTree::Iterator it = index->Seek(predicate.lo, &ctx);
       it.Valid() && it.key() < predicate.hi; it.Next()) {
    const Tid tid = it.tid();
    tids.push_back(tid);
    max_page = std::max(max_page, tid.page_id);
    max_slot = std::max(max_slot, tid.slot);
  }
  ctx.cpu->ChargeSort(tids.size());
  if (tids.size() < kTidCountingSortMin) {
    std::sort(tids.begin(), tids.end());
    return tids;
  }
  // (page, slot) order in linear time: a stable pass by slot, then one by
  // page.
  std::vector<Tid> by_slot(tids.size());
  std::vector<size_t> counts;
  counts.reserve(std::max<size_t>(max_page, max_slot) + 2);
  CountingSortPass(tids, [](const Tid& t) { return size_t{t.slot}; },
                   size_t{max_slot} + 1, &counts, &by_slot);
  CountingSortPass(by_slot, [](const Tid& t) { return size_t{t.page_id}; },
                   size_t{max_page} + 1, &counts, &tids);
  return tids;
}

bool SortedTidCursor::Fill(const ExecContext& ctx, TupleBatch* out) {
  const std::vector<Tid>& tids = *tids_;
  const FileId file = heap_->file_id();
  const bool has_residual = static_cast<bool>(predicate_->residual);
  // Dense-fill kernel (as FullScan::Fill): a row that fails the residual
  // does not advance the count, so its slot is reused.
  Tuple* rows = out->fill_rows();
  const size_t begin = out->fill_begin();
  const size_t cap = out->capacity();
  size_t filled = begin;
  while (next_ < end_ && filled < cap) {
    if (next_ == extent_end_) {
      const SortedTidExtent extent = CoalesceSortedTidExtent(tids, next_, end_);
      ctx.pool->FetchExtent(file, tids[next_].page_id, extent.num_pages);
      stats_.heap_pages_probed += extent.num_pages;
      extent_end_ = extent.last_entry + 1;
    }
    // One page's run of TIDs (up to a full batch) under one pinned Fetch.
    const PageId page_id = tids[next_].page_id;
    const PageGuard page = ctx.pool->Fetch(file, page_id);
    const size_t run_begin = next_;
    do {
      heap_->DecodeInto(*page, tids[next_++].slot, &rows[filled]);
      if (!has_residual || predicate_->residual(rows[filled])) ++filled;
    } while (next_ < extent_end_ && tids[next_].page_id == page_id &&
             filled < cap);
    const uint64_t looked_up = next_ - run_begin;
    stats_.tuples_inspected += looked_up;
    if (looked_up > 1) ctx.pool->AddHits(file, page_id, looked_up - 1);
  }
  out->set_filled(filled);
  stats_.tuples_produced += filled - begin;
  if (next_ < end_) return true;
  Finish(ctx);
  return false;
}

void SortedTidCursor::Finish(const ExecContext& ctx) {
  if (charged_) return;
  charged_ = true;
  ctx.cpu->ChargeInspect(stats_.tuples_inspected);
  ctx.cpu->ChargeProduce(stats_.tuples_produced);
}

SortScan::SortScan(const BPlusTree* index, ScanPredicate predicate,
                   SortScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

ExecContext SortScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SortScan::OpenImpl() {
  const ExecContext& ctx = this->ctx();
  // Phases 1-2: harvest qualifying TIDs from the index leaves and sort them
  // in heap order — the blocking pre-sort.
  tids_ = CollectSortedTids(index_, predicate_, ctx);
  // Phase 3 fetches the result pages, coalescing consecutive page ids into
  // single extent requests ("easily detected by disk prefetchers"). The
  // unordered scan streams it from NextBatch.
  cursor_ = SortedTidCursor(index_->heap(), &predicate_, &tids_, 0,
                            tids_.size());
  next_row_ = 0;
  if (!options_.preserve_order) return Status::OK();

  // Ordered: drain phase 3, then phase 4, the posterior sort restoring the
  // interesting order. The rows arrive in TID order, so sorting (key, row)
  // pairs keeps rows with equal keys in TID order.
  rows_ = TupleBatch(std::max<size_t>(tids_.size(), 1));
  const bool more = cursor_.Fill(ctx, &rows_);
  SMOOTHSCAN_CHECK(!more);
  stats_.heap_pages_probed = cursor_.stats().heap_pages_probed;
  stats_.tuples_inspected = cursor_.stats().tuples_inspected;
  order_.resize(rows_.size());
  for (uint32_t i = 0; i < order_.size(); ++i) {
    order_[i] = {rows_.row(i)[predicate_.column].AsInt64(), i};
  }
  ctx.cpu->ChargeSort(order_.size());
  std::sort(order_.begin(), order_.end());  // Row index breaks key ties.
  return Status::OK();
}

bool SortScan::NextBatchImpl(TupleBatch* out) {
  if (!options_.preserve_order) {
    cursor_.Fill(ctx(), out);
    stats_ = cursor_.stats();
    return !out->empty();
  }
  while (next_row_ < order_.size() && !out->full()) {
    std::swap(*out->AppendSlot(), rows_.row(order_[next_row_++].second));
    ++stats_.tuples_produced;
  }
  return !out->empty();
}

void SortScan::CloseImpl() {
  cursor_.Finish(ctx());  // An abandoned heap phase pays for its look-ups.
  cursor_ = SortedTidCursor();
  // A closed scan holds no memory sized by its result.
  tids_ = std::vector<Tid>();
  rows_ = TupleBatch(1);
  order_ = std::vector<std::pair<int64_t, uint32_t>>();
}

}  // namespace smoothscan
