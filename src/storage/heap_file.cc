#include "storage/heap_file.h"

namespace smoothscan {

HeapFile::HeapFile(Engine* engine, std::string name, Schema schema)
    : engine_(engine), name_(std::move(name)), schema_(std::move(schema)) {
  file_id_ = engine_->storage().CreateFile(name_);
}

Result<Tid> HeapFile::Append(const Tuple& tuple) {
  scratch_.clear();
  schema_.Serialize(tuple, &scratch_);
  const uint32_t size = static_cast<uint32_t>(scratch_.size());
  StorageManager& sm = engine_->storage();
  if (tail_page_ == kInvalidPageId ||
      !sm.GetPageForWrite(file_id_, tail_page_)->Fits(size)) {
    tail_page_ = sm.AppendPage(file_id_);
  }
  Page* page = sm.GetPageForWrite(file_id_, tail_page_);
  Result<SlotId> slot = page->Insert(scratch_.data(), size);
  if (!slot.ok()) return slot.status();
  ++num_tuples_;
  return Tid{tail_page_, slot.value()};
}

void HeapFile::ReadInto(Tid tid, const ExecContext& ctx, Tuple* out) const {
  ctx.pool->Lookup(file_id_, tid.page_id);
  DecodeInto(engine_->storage().GetPage(file_id_, tid.page_id), tid.slot, out);
}

Tuple HeapFile::Read(Tid tid) const {
  Tuple tuple;
  ReadInto(tid, EngineContext(engine_), &tuple);
  return tuple;
}

void HeapFile::ForEachDirect(
    const std::function<void(Tid, const Tuple&)>& fn) const {
  const StorageManager& sm = engine_->storage();
  const size_t pages = sm.NumPages(file_id_);
  for (size_t p = 0; p < pages; ++p) {
    const Page& page = sm.GetPage(file_id_, static_cast<PageId>(p));
    for (uint16_t s = 0; s < page.num_slots(); ++s) {
      uint32_t size = 0;
      const uint8_t* data = page.GetTuple(s, &size);
      if (data == nullptr) continue;  // Tombstoned slot.
      fn(Tid{static_cast<PageId>(p), s}, schema_.Deserialize(data, size));
    }
  }
}

}  // namespace smoothscan
