#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace smoothscan {

bool FilterOp::NextBatchImpl(TupleBatch* out) {
  // Pull child batches until one survives the filter. Survivors are marked
  // in the selection vector; nothing is copied.
  while (child_->NextBatch(out)) {
    engine_->cpu().ChargeInspect(out->size());
    out->Filter(predicate_);
    if (!out->empty()) return true;
  }
  return false;
}

Status SortOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  next_ = 0;
  TupleBatch batch;
  while (child_->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) rows_.push_back(batch.Take(i));
  }
  engine_->cpu().ChargeSort(rows_.size());
  std::stable_sort(rows_.begin(), rows_.end(), less_);
  return Status::OK();
}

bool SortOp::NextBatchImpl(TupleBatch* out) {
  while (next_ < rows_.size() && !out->full()) {
    out->Append(std::move(rows_[next_++]));
  }
  return !out->empty();
}

void SortOp::CloseImpl() {
  rows_.clear();
  rows_.shrink_to_fit();
  next_ = 0;
  child_->Close();
}

Status HashJoinOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(left_->Open());
  SMOOTHSCAN_RETURN_IF_ERROR(right_->Open());
  table_.clear();
  matches_ = nullptr;
  match_idx_ = 0;
  probe_.Reset();
  TupleBatch batch;
  while (right_->NextBatch(&batch)) {
    engine_->cpu().ChargeHashOp(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Tuple t = batch.Take(i);
      table_[t[right_key_col_].AsInt64()].push_back(std::move(t));
    }
  }
  return Status::OK();
}

bool HashJoinOp::NextBatchImpl(TupleBatch* out) {
  uint64_t hash_ops = 0;
  while (!out->full()) {
    if (matches_ != nullptr && match_idx_ < matches_->size()) {
      ConcatInto(probe_.row(), (*matches_)[match_idx_++], out->AppendSlot());
      continue;
    }
    matches_ = nullptr;
    if (!probe_.Advance(left_.get())) break;
    ++hash_ops;
    auto it = table_.find(probe_.row()[left_key_col_].AsInt64());
    if (it == table_.end()) continue;
    matches_ = &it->second;
    match_idx_ = 0;
  }
  engine_->cpu().ChargeHashOp(hash_ops);
  return !out->empty();
}

bool IndexNestedLoopJoinOp::NextBatchImpl(TupleBatch* out) {
  const HeapFile* inner_heap = inner_index_->heap();
  const ExecContext ctx = EngineContext(inner_heap->engine());
  uint64_t inspected = 0;
  while (!out->full()) {
    if (pending_idx_ < pending_.size()) {
      out->Append(std::move(pending_[pending_idx_++]));
      continue;
    }
    pending_.clear();
    pending_idx_ = 0;
    if (!outer_.Advance(outer_op_.get())) break;
    const Tuple& outer = outer_.row();
    const int64_t key = outer[outer_key_col_].AsInt64();
    // Probe the inner index; each match costs one heap look-up. Matches fill
    // the output batch in place; only a run that overflows it is buffered.
    for (BPlusTree::Iterator it = inner_index_->Seek(key);
         it.Valid() && it.key() == key; it.Next()) {
      inner_heap->ReadInto(it.tid(), ctx, &inner_);
      ++inspected;
      ConcatInto(outer, inner_,
                 out->full() ? &pending_.emplace_back() : out->AppendSlot());
    }
  }
  ctx.cpu->ChargeInspect(inspected);
  return !out->empty();
}

namespace {

// Hash of one group-by value, consistent with Value::operator==: equal
// values hash alike (0.0 and -0.0 included), and values of different types
// never compare equal, so the type tag is mixed in.
uint64_t HashValue(const Value& v) {
  uint64_t bits = 0;
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDate:
      bits = static_cast<uint64_t>(v.AsInt64());
      break;
    case ValueType::kDouble: {
      const double d = v.AsDouble() == 0.0 ? 0.0 : v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      break;
    }
    case ValueType::kString:
      bits = std::hash<std::string>{}(v.AsString());
      break;
  }
  // splitmix64 finalizer.
  bits ^= static_cast<uint64_t>(v.type()) << 56;
  bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
  bits = (bits ^ (bits >> 27)) * 0x94d049bb133111ebULL;
  return bits ^ (bits >> 31);
}

}  // namespace

void HashAggregateOp::Accumulate(const Tuple& t, GroupIndex* index) {
  uint64_t hash = 0;
  for (const int c : group_by_) {
    hash = (hash ^ HashValue(t[c])) * 0x9e3779b97f4a7c15ULL;
  }
  size_t g = groups_.size();
  const auto [lo, hi] = index->equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    const Tuple& key = groups_[it->second].key_values;
    size_t k = 0;
    while (k < group_by_.size() && key[k] == t[group_by_[k]]) ++k;
    if (k == group_by_.size()) {
      g = it->second;
      break;
    }
  }
  if (g == groups_.size()) {
    index->emplace(hash, g);
    GroupState gs;
    for (const int c : group_by_) gs.key_values.push_back(t[c]);
    gs.acc.resize(aggs_.size(), 0.0);
    gs.counts.resize(aggs_.size(), 0);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].fn == AggFn::kMin) gs.acc[a] = 1e300;
      if (aggs_[a].fn == AggFn::kMax) gs.acc[a] = -1e300;
    }
    groups_.push_back(std::move(gs));
  }
  GroupState& gs = groups_[g];
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    ++gs.counts[a];
    switch (spec.fn) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        gs.acc[a] += spec.expr(t);
        break;
      case AggFn::kMin:
        gs.acc[a] = std::min(gs.acc[a], spec.expr(t));
        break;
      case AggFn::kMax:
        gs.acc[a] = std::max(gs.acc[a], spec.expr(t));
        break;
    }
  }
}

Status HashAggregateOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(child_->Open());
  groups_.clear();
  next_ = 0;

  GroupIndex index;
  TupleBatch batch;
  while (child_->NextBatch(&batch)) {
    engine_->cpu().ChargeHashOp(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) Accumulate(batch.row(i), &index);
  }
  // A global aggregate over empty input still produces one all-zero row.
  if (group_by_.empty() && groups_.empty()) {
    GroupState gs;
    gs.acc.resize(aggs_.size(), 0.0);
    gs.counts.resize(aggs_.size(), 0);
    groups_.push_back(std::move(gs));
  }
  return Status::OK();
}

bool HashAggregateOp::NextBatchImpl(TupleBatch* out) {
  while (next_ < groups_.size() && !out->full()) {
    const GroupState& gs = groups_[next_++];
    const size_t k = gs.key_values.size();
    Tuple& row = *out->AppendSlot();
    row.resize(k + aggs_.size());
    std::copy(gs.key_values.begin(), gs.key_values.end(), row.begin());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      double v = 0.0;
      switch (aggs_[a].fn) {
        case AggFn::kCount:
          v = static_cast<double>(gs.counts[a]);
          break;
        case AggFn::kSum:
          v = gs.acc[a];
          break;
        case AggFn::kAvg:
          v = gs.counts[a] == 0
                  ? 0.0
                  : gs.acc[a] / static_cast<double>(gs.counts[a]);
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          v = gs.acc[a];
          break;
      }
      row[k + a].SetDouble(v);
    }
  }
  return !out->empty();
}

void HashAggregateOp::CloseImpl() {
  groups_.clear();
  groups_.shrink_to_fit();
  next_ = 0;
  child_->Close();
}

}  // namespace smoothscan
