#include "exec/morphing_index_join.h"

namespace smoothscan {

MorphingIndexJoinOp::MorphingIndexJoinOp(std::unique_ptr<Operator> outer,
                                         const BPlusTree* inner_index,
                                         int outer_key_col,
                                         MorphingIndexJoinOptions options)
    : outer_op_(std::move(outer)),
      inner_index_(inner_index),
      outer_key_col_(outer_key_col),
      options_(options) {}

Status MorphingIndexJoinOp::OpenImpl() {
  mstats_ = MorphingJoinStats();
  cache_.clear();
  complete_keys_.clear();
  harvested_ =
      std::make_unique<PageIdCache>(inner_index_->heap()->num_pages());
  matches_ = nullptr;
  match_idx_ = 0;
  match_end_ = 0;
  outer_.Reset();
  return outer_op_->Open();
}

void MorphingIndexJoinOp::HarvestPage(PageId pid) {
  const HeapFile* heap = inner_index_->heap();
  Engine* engine = heap->engine();
  const PageGuard guard = engine->pool().Fetch(heap->file_id(), pid);
  harvested_->Mark(pid);
  ++mstats_.pages_harvested;
  const Page& page = *guard;
  const Schema& schema = heap->schema();
  const int key_col = inner_index_->key_column();
  for (uint16_t s = 0; s < page.num_slots(); ++s) {
    uint32_t size = 0;
    const uint8_t* data = page.GetTuple(s, &size);
    if (data == nullptr) continue;  // Tombstoned slot.
    engine->cpu().ChargeInspect();
    Tuple tuple = schema.Deserialize(data, size);
    const int64_t key = tuple[key_col].AsInt64();
    engine->cpu().ChargeHashOp();
    cache_[key].push_back(std::move(tuple));
    ++mstats_.tuples_cached;
  }
}

const std::vector<Tuple>& MorphingIndexJoinOp::CompleteKey(int64_t key) {
  static const std::vector<Tuple> kEmpty;
  Engine* engine = inner_index_->heap()->engine();
  engine->cpu().ChargeHashOp();
  if (complete_keys_.count(key) > 0) {
    ++mstats_.cache_hits;
    auto it = cache_.find(key);
    return it == cache_.end() ? kEmpty : it->second;
  }
  // First probe of this key: walk its index entries; harvest any page not
  // yet cached. Afterwards every tuple with this key is resident.
  ++mstats_.index_descents;
  for (BPlusTree::Iterator it = inner_index_->Seek(key);
       it.Valid() && it.key() == key; it.Next()) {
    const PageId pid = it.tid().page_id;
    engine->cpu().ChargeCacheOp();
    if (!harvested_->IsMarked(pid)) HarvestPage(pid);
  }
  complete_keys_.insert(key);
  engine->cpu().ChargeHashOp();
  auto it = cache_.find(key);
  return it == cache_.end() ? kEmpty : it->second;
}

bool MorphingIndexJoinOp::NextBatchImpl(TupleBatch* out) {
  const HeapFile* heap = inner_index_->heap();
  Engine* engine = heap->engine();
  uint64_t produced = 0;
  while (!out->full()) {
    if (matches_ != nullptr && match_idx_ < match_end_) {
      ConcatInto(outer_.row(), (*matches_)[match_idx_++], out->AppendSlot());
      ++produced;
      continue;
    }
    matches_ = nullptr;
    if (!outer_.Advance(outer_op_.get())) break;
    ++mstats_.probes;
    const int64_t key = outer_.row()[outer_key_col_].AsInt64();

    if (options_.enable_harvesting) {
      const std::vector<Tuple>& m = CompleteKey(key);
      if (m.empty()) continue;
      matches_ = &m;
      match_idx_ = 0;
      match_end_ = m.size();
      continue;
    }

    // Plain INLJ baseline: one heap look-up per matching entry, no caching.
    // Matches decode into the warm slots of plain_matches_, which only grows.
    ++mstats_.index_descents;
    const ExecContext ctx = EngineContext(engine);
    size_t n = 0;
    for (BPlusTree::Iterator it = inner_index_->Seek(key);
         it.Valid() && it.key() == key; it.Next()) {
      if (n == plain_matches_.size()) plain_matches_.emplace_back();
      heap->ReadInto(it.tid(), ctx, &plain_matches_[n++]);
    }
    engine->cpu().ChargeInspect(n);
    if (n == 0) continue;
    matches_ = &plain_matches_;
    match_idx_ = 0;
    match_end_ = n;
  }
  engine->cpu().ChargeProduce(produced);
  return !out->empty();
}

}  // namespace smoothscan
