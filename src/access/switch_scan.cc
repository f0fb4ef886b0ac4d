#include "access/switch_scan.h"

namespace smoothscan {

SwitchScan::SwitchScan(const BPlusTree* index, ScanPredicate predicate,
                       SwitchScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
}

ExecContext SwitchScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SwitchScan::OpenImpl() {
  it_ = index_->Seek(predicate_.lo, &ctx());
  produced_ = 0;
  stop_ = IndexPosition();
  switched_ = false;
  full_.reset();
  return Status::OK();
}

void SwitchScan::CloseImpl() {
  it_.reset();
  full_.reset();
}

bool SwitchScan::IndexPhase(TupleBatch* out, ScanWork* work) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  while (!out->full()) {
    if (!it_->Valid() || it_->key() >= predicate_.hi) return false;
    const Tid tid = it_->tid();
    it_->PrefetchHeapAhead();
    Tuple* slot = out->AppendSlot();
    heap->ReadInto(tid, ctx, slot);
    ++work->pages;
    ++work->inspected;
    if (predicate_.residual && !predicate_.residual(*slot)) {
      out->PopLast();
      it_->Next();
      continue;
    }
    // A qualifying tuple. If producing it would exceed the estimate, the
    // estimate is wrong: switch *before producing the next result tuple*
    // (Section VI-F). The tuple is popped, not produced — the full scan will
    // re-discover it, since it does not lie below the stop position.
    if (produced_ >= options_.estimated_cardinality) {
      out->PopLast();
      stop_ = it_->position();
      switched_ = true;
      return false;
    }
    it_->Next();
    ++produced_;
    ++work->cache_ops;  // The paper's Tuple ID Cache insert.
    ++work->produced;
  }
  return true;
}

bool SwitchScan::NextBatchImpl(TupleBatch* out) {
  ScanWork work;
  if (!switched_) {
    IndexPhase(out, &work);
    work.Charge(ctx().cpu);
    work.AddTo(&stats_);
    // Keep the batch from the index phase even if the switch just fired; the
    // full scan continues in the next call.
    if (!out->empty()) return true;
    if (!switched_) return false;  // Index phase finished without violation.
    work = ScanWork();
  }
  if (!full_) {
    // Post-switch: a full scan that suppresses the tuples already produced.
    full_.emplace(index_->heap(), predicate_);
    full_->SetExecContext(&ctx());
    SMOOTHSCAN_CHECK(full_->Open().ok());
  }
  full_->Fill(out, &stop_, &work);
  work.Charge(ctx().cpu);
  work.AddTo(&stats_);
  return !out->empty();
}

}  // namespace smoothscan
