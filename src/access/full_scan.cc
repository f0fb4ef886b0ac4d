#include "access/full_scan.h"

#include <algorithm>

namespace smoothscan {

FullScan::FullScan(const HeapFile* heap, ScanPredicate predicate,
                   FullScanOptions options)
    : heap_(heap), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(options_.page_begin <= options_.page_end);
}

ExecContext FullScan::DefaultContext() const {
  return EngineContext(heap_->engine());
}

Status FullScan::OpenImpl() {
  num_pages_ = std::min<PageId>(static_cast<PageId>(heap_->num_pages()),
                                options_.page_end);
  cur_page_ = std::min(options_.page_begin, num_pages_);
  cur_slot_ = 0;
  window_end_ = cur_page_;
  return Status::OK();
}

void FullScan::CloseImpl() {
  // Forget the cursor; no pins outlive a NextBatch call.
  cur_page_ = num_pages_;
  cur_slot_ = 0;
}

bool FullScan::Fill(TupleBatch* out, const IndexPosition* exclude,
                    ScanWork* work) {
  const ExecContext& ctx = this->ctx();
  const Schema& schema = heap_->schema();
  const FileId file = heap_->file_id();
  Tuple* rows = out->fill_rows();
  const size_t begin = out->fill_begin();
  size_t filled = begin;
  const size_t cap = out->capacity();
  while (filled < cap && cur_page_ < num_pages_) {
    if (cur_page_ >= window_end_) {
      const uint32_t window = std::min<uint32_t>(kReadAheadPages,
                                                 num_pages_ - window_end_);
      ctx.pool->FetchExtent(file, window_end_, window);
      window_end_ += window;
    }
    const PageGuard guard = ctx.pool->Pin(file, cur_page_);
    if (cur_slot_ == 0) ++work->pages;
    cur_slot_ = FillFromPage(*guard, cur_page_, cur_slot_, schema, predicate_,
                             exclude, rows, cap, &filled, work);
    if (cur_slot_ >= guard->num_slots()) {
      ++cur_page_;
      cur_slot_ = 0;
    }
  }
  out->set_filled(filled);
  work->produced += filled - begin;
  return filled == cap;
}

bool FullScan::NextBatchImpl(TupleBatch* out) {
  ScanWork work;
  Fill(out, /*exclude=*/nullptr, &work);
  work.Charge(ctx().cpu);
  work.AddTo(&stats_);
  return !out->empty();
}

}  // namespace smoothscan
