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
  const int key_col = predicate_.column;
  const int64_t lo = predicate_.lo;
  const int64_t hi = predicate_.hi;
  const bool has_residual = static_cast<bool>(predicate_.residual);
  // Dense-fill kernel: the running count stays in a register; failed
  // residuals simply do not advance it, reusing the slot.
  Tuple* rows = out->fill_rows();
  const size_t begin = out->fill_begin();
  size_t filled = begin;
  const size_t cap = out->capacity();
  uint64_t pages = 0;
  uint64_t inspected = 0;
  uint64_t cache_ops = 0;
  while (filled < cap && cur_page_ < num_pages_) {
    if (cur_page_ >= window_end_) {
      const uint32_t window = std::min<uint32_t>(kReadAheadPages,
                                                 num_pages_ - window_end_);
      ctx.pool->FetchExtent(file, window_end_, window);
      window_end_ += window;
    }
    const PageGuard guard = ctx.pool->Pin(file, cur_page_);
    const Page& page = *guard;
    if (cur_slot_ == 0) ++pages;
    const uint16_t num_slots = page.num_slots();
    uint16_t slot = cur_slot_;
    while (slot < num_slots && filled < cap) {
      const SlotId s = slot++;
      uint32_t size = 0;
      const uint8_t* data = page.GetTuple(s, &size);
      if (data == nullptr) continue;  // Tombstoned slot.
      ++inspected;
      // Cheap key check on the serialized bytes before materializing.
      const int64_t key = schema.ReadInt64Column(data, size, key_col);
      if (key < lo || key >= hi) continue;
      Tuple* decoded = &rows[filled];
      schema.DeserializeInto(data, size, decoded);
      if (has_residual && !predicate_.residual(*decoded)) continue;
      if (exclude != nullptr) {
        ++cache_ops;
        if (IndexPosition{key, Tid{cur_page_, s}} < *exclude) continue;
      }
      ++filled;
    }
    cur_slot_ = slot;
    if (cur_slot_ >= num_slots) {
      ++cur_page_;
      cur_slot_ = 0;
    }
  }
  out->set_filled(filled);
  work->pages += pages;
  work->inspected += inspected;
  work->produced += filled - begin;
  work->cache_ops += cache_ops;
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
