#include "write/table_writer.h"

namespace smoothscan {

namespace {

/// Bytes an insert of `size` needs on a page (image + one slot entry; a
/// recycled tombstone slot only makes this conservative).
uint32_t NeedFor(uint32_t size) { return size + 4; }

}  // namespace

TableWriter::TableWriter(HeapFile* heap, std::vector<BPlusTree*> indexes,
                         TableVersionRegistry* registry)
    : heap_(heap),
      indexes_(std::move(indexes)),
      registry_(registry),
      file_(heap->file_id()),
      empty_page_usable_(
          Page(heap->engine()->storage().page_size()).usable_space()) {
  SMOOTHSCAN_CHECK(heap_ != nullptr && registry_ != nullptr);
  for (const BPlusTree* index : indexes_) {
    SMOOTHSCAN_CHECK(index != nullptr && index->heap() == heap_);
  }
}

void TableWriter::EnsureFsm() {
  if (fsm_built_) return;
  // Maintenance walk over the era view: free of charge, like statistics.
  const PageId pages = registry_->NumPagesInEra(file_);
  fsm_.Reset();
  for (PageId p = 0; p < pages; ++p) {
    const Page* overlay = registry_->ResolveOverlay(file_, p);
    const Page& page =
        overlay != nullptr ? *overlay
                           : heap_->engine()->storage().GetPage(file_, p);
    fsm_.SetPage(p, page.usable_space());
  }
  fsm_built_ = true;
}

void TableWriter::UpdateFsm(PageId pid, const Page& page) {
  fsm_.SetPage(pid, page.usable_space());
}

const Page* TableWriter::ReadView(PageId pid, const ExecContext& ctx,
                                  PageGuard* guard) {
  // Charge the buffer fetch a real system performs before touching a frame.
  // Era-append pages exist only in writer memory: no fetch, no charge.
  const PageId base_pages =
      static_cast<PageId>(heap_->engine()->storage().NumPages(file_));
  const Page* overlay = registry_->ResolveOverlay(file_, pid);
  if (pid < base_pages) *guard = ctx.pool->Fetch(file_, pid);
  if (overlay != nullptr) return overlay;
  SMOOTHSCAN_CHECK(*guard);  // A non-overlaid page must be a base page.
  return guard->get();
}

bool TableWriter::DecodeLive(const Page& page, Tid tid, Tuple* out) const {
  if (tid.slot >= page.num_slots() || !page.IsLive(tid.slot)) return false;
  uint32_t size = 0;
  const uint8_t* data = page.GetTuple(tid.slot, &size);
  *out = heap_->schema().Deserialize(data, size);
  return true;
}

void TableWriter::MaintainIndexes(const Tuple& old_tuple, Tid old_tid,
                                  const Tuple* new_tuple, Tid new_tid) {
  for (BPlusTree* index : indexes_) {
    const int col = index->key_column();
    const int64_t old_key = old_tuple[col].AsInt64();
    if (new_tuple == nullptr) {
      registry_->QueueIndexRemove(file_, index, old_key, old_tid);
      continue;
    }
    const int64_t new_key = (*new_tuple)[col].AsInt64();
    if (old_key == new_key && old_tid == new_tid) continue;  // Untouched.
    registry_->QueueIndexRemove(file_, index, old_key, old_tid);
    registry_->QueueIndexInsert(file_, index, new_key, new_tid);
  }
}

Result<Tid> TableWriter::Insert(const Tuple& tuple, const ExecContext& ctx) {
  TableVersionRegistry::WriteTicket ticket =
      registry_->BeginWrite(file_, heap_);
  return DoInsert(tuple, ctx);
}

Result<Tid> TableWriter::Update(Tid tid, const Tuple& tuple,
                                const ExecContext& ctx) {
  TableVersionRegistry::WriteTicket ticket =
      registry_->BeginWrite(file_, heap_);
  return DoUpdate(tid, tuple, ctx);
}

Status TableWriter::Delete(Tid tid, const ExecContext& ctx) {
  TableVersionRegistry::WriteTicket ticket =
      registry_->BeginWrite(file_, heap_);
  return DoDelete(tid, ctx);
}

Status TableWriter::Apply(const std::vector<WriteOp>& ops,
                          const ExecContext& ctx, uint64_t* applied) {
  if (applied != nullptr) *applied = 0;
  TableVersionRegistry::WriteTicket ticket =
      registry_->BeginWrite(file_, heap_);
  for (const WriteOp& op : ops) {
    Status status = Status::OK();
    switch (op.kind) {
      case WriteOp::Kind::kInsert:
        status = DoInsert(op.tuple, ctx).status();
        break;
      case WriteOp::Kind::kUpdate:
        status = DoUpdate(op.tid, op.tuple, ctx).status();
        break;
      case WriteOp::Kind::kDelete:
        status = DoDelete(op.tid, ctx);
        break;
    }
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      return status;  // Ops so far stay in the era and will publish.
    }
    if (!status.ok()) ++stats_.skipped_dead;  // Deterministic no-op.
    if (applied != nullptr) ++*applied;
  }
  return Status::OK();
}

Result<Tid> TableWriter::DoInsert(const Tuple& tuple, const ExecContext& ctx) {
  EnsureFsm();
  scratch_.clear();
  heap_->schema().Serialize(tuple, &scratch_);
  const uint32_t size = static_cast<uint32_t>(scratch_.size());

  if (NeedFor(size) > empty_page_usable_) {
    return Status::ResourceExhausted("tuple larger than an empty page");
  }
  PageId pid = fsm_.FindPageWithSpace(NeedFor(size));
  const PageId base_pages =
      static_cast<PageId>(heap_->engine()->storage().NumPages(file_));
  if (pid == kInvalidPageId) {
    pid = registry_->AppendPage(file_);
    fsm_.SetPage(pid, empty_page_usable_);
    ++stats_.pages_appended;
  } else if (pid < base_pages) {
    // Re-using an existing page: the frame is read before being modified.
    ctx.pool->Lookup(file_, pid);
    ++stats_.recycled_inserts;
  }
  Page* page = registry_->PageForWrite(file_, pid);
  Result<SlotId> slot = page->Insert(scratch_.data(), size);
  SMOOTHSCAN_CHECK(slot.ok());  // The FSM guaranteed fit.
  const Tid tid{pid, slot.value()};

  for (BPlusTree* index : indexes_) {
    registry_->QueueIndexInsert(file_, index,
                                tuple[index->key_column()].AsInt64(), tid);
  }
  registry_->AddTupleDelta(file_, +1);
  UpdateFsm(pid, *page);
  ctx.cpu->ChargeWriteTuple();
  ++stats_.inserts;
  return tid;
}

Result<Tid> TableWriter::DoUpdate(Tid tid, const Tuple& tuple,
                                  const ExecContext& ctx) {
  EnsureFsm();
  if (tid.page_id >= registry_->NumPagesInEra(file_)) {
    return Status::NotFound("update target past end of table");
  }
  PageGuard guard;
  const Page* view = ReadView(tid.page_id, ctx, &guard);
  Tuple old_tuple;
  if (!DecodeLive(*view, tid, &old_tuple)) {
    return Status::NotFound("update target is dead");
  }
  ctx.cpu->ChargeInspect();

  scratch_.clear();
  heap_->schema().Serialize(tuple, &scratch_);
  const uint32_t size = static_cast<uint32_t>(scratch_.size());
  // Checked before any mutation: the moved-update path tombstones the old
  // image first and must never be left half-applied.
  if (NeedFor(size) > empty_page_usable_) {
    return Status::ResourceExhausted("tuple larger than an empty page");
  }

  Page* page = registry_->PageForWrite(file_, tid.page_id);
  Tid new_tid = tid;
  if (page->Update(tid.slot, scratch_.data(), size).ok()) {
    UpdateFsm(tid.page_id, *page);
  } else {
    // No room in place: tombstone here, re-insert elsewhere (a moved Tid,
    // like PostgreSQL's cross-page update without HOT).
    page->Delete(tid.slot);
    UpdateFsm(tid.page_id, *page);
    registry_->AddTupleDelta(file_, -1);  // DoInsert re-adds it.
    Result<Tid> moved = DoInsert(tuple, ctx);
    if (!moved.ok()) return moved.status();
    --stats_.inserts;  // Count the op as one update, not insert + update.
    new_tid = moved.value();
    ++stats_.moved_updates;
    MaintainIndexes(old_tuple, tid, nullptr, Tid{});
    // DoInsert queued the inserts for the new image already.
    ctx.cpu->ChargeWriteTuple();
    ++stats_.updates;
    return new_tid;
  }
  MaintainIndexes(old_tuple, tid, &tuple, new_tid);
  ctx.cpu->ChargeWriteTuple();
  ++stats_.updates;
  return new_tid;
}

Status TableWriter::DoDelete(Tid tid, const ExecContext& ctx) {
  EnsureFsm();
  if (tid.page_id >= registry_->NumPagesInEra(file_)) {
    return Status::NotFound("delete target past end of table");
  }
  PageGuard guard;
  const Page* view = ReadView(tid.page_id, ctx, &guard);
  Tuple old_tuple;
  if (!DecodeLive(*view, tid, &old_tuple)) {
    return Status::NotFound("delete target is dead");
  }
  ctx.cpu->ChargeInspect();

  Page* page = registry_->PageForWrite(file_, tid.page_id);
  page->Delete(tid.slot);
  UpdateFsm(tid.page_id, *page);
  MaintainIndexes(old_tuple, tid, nullptr, Tid{});
  registry_->AddTupleDelta(file_, -1);
  ctx.cpu->ChargeWriteTuple();
  ++stats_.deletes;
  return Status::OK();
}

}  // namespace smoothscan
