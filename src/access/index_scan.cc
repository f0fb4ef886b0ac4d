#include "access/index_scan.h"

namespace smoothscan {

IndexScan::IndexScan(const BPlusTree* index, ScanPredicate predicate)
    : index_(index), predicate_(std::move(predicate)) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

ExecContext IndexScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status IndexScan::OpenImpl() {
  it_ = index_->Seek(predicate_.lo, &ctx());
  return Status::OK();
}

bool IndexScan::NextBatchImpl(TupleBatch* out) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  uint64_t inspected = 0;
  uint64_t produced = 0;
  while (!out->full() && it_->Valid() && it_->key() < predicate_.hi) {
    const Tid tid = it_->tid();
    it_->PrefetchHeapAhead();
    it_->Next();
    // One heap look-up per entry: random I/O unless the page happens to be
    // resident — exactly the pattern of Eq. (11).
    Tuple* slot = out->AppendSlot();
    heap->ReadInto(tid, ctx, slot);
    ++stats_.heap_pages_probed;
    ++inspected;
    if (predicate_.residual && !predicate_.residual(*slot)) {
      out->PopLast();
      continue;
    }
    ++produced;
  }
  stats_.tuples_inspected += inspected;
  stats_.tuples_produced += produced;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeProduce(produced);
  return !out->empty();
}

}  // namespace smoothscan
