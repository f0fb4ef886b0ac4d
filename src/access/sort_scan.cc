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

}  // namespace

std::vector<Tid> CollectSortedTids(const BPlusTree* index,
                                   const ScanPredicate& predicate,
                                   const ExecContext& ctx) {
  std::vector<Tid> tids;
  for (BPlusTree::Iterator it = index->Seek(predicate.lo, &ctx);
       it.Valid() && it.key() < predicate.hi; it.Next()) {
    tids.push_back(it.tid());
  }
  ctx.cpu->ChargeSort(tids.size());
  std::sort(tids.begin(), tids.end());
  return tids;
}

AccessPathStats FetchSortedTids(
    const HeapFile* heap, const ScanPredicate& predicate,
    const std::vector<Tid>& tids, size_t begin, size_t end,
    const ExecContext& ctx,
    const std::function<void(const Tid&, const Tuple&)>& sink) {
  AccessPathStats stats;
  Tuple tuple;  // Warm scratch: every look-up decodes into its storage.
  size_t i = begin;
  while (i < end) {
    const SortedTidExtent extent = CoalesceSortedTidExtent(tids, i, end);
    const size_t j = extent.last_entry;
    ctx.pool->FetchExtent(heap->file_id(), tids[i].page_id, extent.num_pages);
    stats.heap_pages_probed += extent.num_pages;
    for (size_t k = i; k <= j; ++k) {
      heap->ReadInto(tids[k], ctx, &tuple);  // Resident: buffer-pool hit.
      ++stats.tuples_inspected;
      if (predicate.residual && !predicate.residual(tuple)) continue;
      ++stats.tuples_produced;
      sink(tids[k], tuple);
    }
    i = j + 1;
  }
  ctx.cpu->ChargeInspect(stats.tuples_inspected);
  ctx.cpu->ChargeProduce(stats.tuples_produced);
  return stats;
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
  results_.clear();
  next_result_ = 0;
  pages_fetched_ = 0;

  // Phases 1-2: harvest qualifying TIDs from the index leaves and sort them
  // in heap order — the blocking pre-sort.
  const std::vector<Tid> tids = CollectSortedTids(index_, predicate_, ctx);

  // Phase 3: fetch the result pages, coalescing consecutive page ids into
  // single extent requests ("easily detected by disk prefetchers").
  struct KeyedTuple {
    int64_t key;
    Tid tid;
    Tuple tuple;
  };
  std::vector<KeyedTuple> keyed;
  const AccessPathStats fetched = FetchSortedTids(
      index_->heap(), predicate_, tids, 0, tids.size(), ctx,
      [&](const Tid& tid, const Tuple& tuple) {
        keyed.push_back({tuple[predicate_.column].AsInt64(), tid, tuple});
      });
  pages_fetched_ = fetched.heap_pages_probed;
  stats_.heap_pages_probed += fetched.heap_pages_probed;
  stats_.tuples_inspected += fetched.tuples_inspected;

  // Phase 4 (optional): posterior sort restoring the interesting order.
  if (options_.preserve_order) {
    ctx.cpu->ChargeSort(keyed.size());
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const KeyedTuple& a, const KeyedTuple& b) {
                       return a.key != b.key ? a.key < b.key : a.tid < b.tid;
                     });
  }
  results_.reserve(keyed.size());
  for (KeyedTuple& kt : keyed) results_.push_back(std::move(kt.tuple));
  return Status::OK();
}

bool SortScan::NextBatchImpl(TupleBatch* out) {
  while (next_result_ < results_.size() && !out->full()) {
    out->Append(std::move(results_[next_result_++]));
    ++stats_.tuples_produced;
  }
  return !out->empty();
}

}  // namespace smoothscan
