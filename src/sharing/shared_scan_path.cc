#include "sharing/shared_scan_path.h"

namespace smoothscan {

SharedScanPath::SharedScanPath(ScanSharingCoordinator* coordinator,
                               const HeapFile* heap, ScanPredicate predicate)
    : coordinator_(coordinator),
      heap_(heap),
      predicate_(std::move(predicate)) {
  SMOOTHSCAN_CHECK(coordinator_ != nullptr);
  SMOOTHSCAN_CHECK(coordinator_->engine() == heap_->engine());
}

Status SharedScanPath::OpenImpl() {
  consumer_.Detach();  // Re-Open mid-lap starts a fresh lap.
  chunk_ = nullptr;
  chunk_page_ = 0;
  cur_slot_ = 0;
  done_ = false;
  chunks_consumed_ = 0;
  consumer_ = coordinator_->Attach(heap_);
  start_seq_ = consumer_.start_seq();
  lap_chunks_ = consumer_.lap_chunks();
  return Status::OK();
}

void SharedScanPath::CloseImpl() {
  chunk_ = nullptr;
  consumer_.Detach();  // Mid-lap close = cancelled consumer.
}

bool SharedScanPath::NextBatchImpl(TupleBatch* out) {
  const Schema& schema = heap_->schema();
  Tuple* rows = out->fill_rows();
  const size_t begin = out->fill_begin();
  size_t filled = begin;
  const size_t cap = out->capacity();
  ScanWork work;
  while (filled < cap && !done_) {
    if (chunk_ == nullptr) {
      // Releases the previous chunk and blocks for the next one.
      chunk_ = consumer_.NextChunk();
      chunk_page_ = 0;
      cur_slot_ = 0;
      if (chunk_ == nullptr) {
        done_ = true;  // Lap complete: the consumer detached itself.
        break;
      }
      ++chunks_consumed_;
    }
    const Page& page = *chunk_->guards[chunk_page_];
    if (cur_slot_ == 0) ++work.pages;
    cur_slot_ = FillFromPage(page, /*page_id=*/0, cur_slot_, schema,
                             predicate_, /*exclude=*/nullptr, rows, cap,
                             &filled, &work);
    if (cur_slot_ >= page.num_slots()) {
      ++chunk_page_;
      cur_slot_ = 0;
      if (chunk_page_ >= chunk_->num_pages) chunk_ = nullptr;
    }
  }
  out->set_filled(filled);
  work.produced = filled - begin;
  work.Charge(ctx().cpu);
  work.AddTo(&stats_);
  return !out->empty();
}

}  // namespace smoothscan
