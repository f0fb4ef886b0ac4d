#include "exec/merge_join.h"

namespace smoothscan {

MergeJoinOp::MergeJoinOp(Engine* engine, std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right, int left_key_col,
                         int right_key_col)
    : engine_(engine),
      left_(std::move(left)),
      right_(std::move(right)),
      left_key_col_(left_key_col),
      right_key_col_(right_key_col) {}

Status MergeJoinOp::OpenImpl() {
  SMOOTHSCAN_RETURN_IF_ERROR(left_->Open());
  SMOOTHSCAN_RETURN_IF_ERROR(right_->Open());
  left_in_.Reset();
  right_in_.Reset();
  right_group_.clear();
  group_valid_ = false;
  group_idx_ = 0;
  // Reset validity before the first advances: a stale *_valid_ from a
  // previous Open would make AdvanceLeft/Right compare the new stream's
  // first key against the old run's last key and abort.
  left_valid_ = false;
  right_valid_ = false;
  left_valid_ = AdvanceLeft();
  right_valid_ = AdvanceRight();
  return Status::OK();
}

bool MergeJoinOp::NextBatchImpl(TupleBatch* out) {
  uint64_t produced = 0;
  while (!out->full()) {
    if (!NextRow(out->AppendSlot())) {
      out->PopLast();
      break;
    }
    ++produced;
  }
  engine_->cpu().ChargeProduce(produced);
  return !out->empty();
}

bool MergeJoinOp::AdvanceLeft() {
  const bool had = left_valid_;
  if (!left_in_.Advance(left_.get())) return false;
  const int64_t key = left_in_.row()[left_key_col_].AsInt64();
  if (had) SMOOTHSCAN_CHECK(key >= left_last_key_);  // Ordered input.
  left_last_key_ = key;
  return true;
}

bool MergeJoinOp::AdvanceRight() {
  const bool had = right_valid_;
  if (!right_in_.Advance(right_.get())) return false;
  const int64_t key = right_in_.row()[right_key_col_].AsInt64();
  if (had) SMOOTHSCAN_CHECK(key >= right_last_key_);
  right_last_key_ = key;
  return true;
}

void MergeJoinOp::CollectRightGroup(int64_t key) {
  right_group_.clear();
  group_key_ = key;
  group_valid_ = true;
  while (right_valid_ && right_in_.row()[right_key_col_].AsInt64() == key) {
    engine_->cpu().ChargeHashOp();
    right_group_.push_back(right_in_.Take());
    right_valid_ = AdvanceRight();
  }
}

bool MergeJoinOp::NextRow(Tuple* out) {
  while (left_valid_) {
    const Tuple& left = left_in_.row();
    const int64_t lkey = left[left_key_col_].AsInt64();
    if (group_valid_ && lkey == group_key_) {
      // Emit pending (left row, right_group_) pairs.
      if (group_idx_ < right_group_.size()) {
        ConcatInto(left, right_group_[group_idx_++], out);
        return true;
      }
      // Exhausted the group for this left row; next left row may reuse it.
      left_valid_ = AdvanceLeft();
      group_idx_ = 0;
      continue;
    }
    // No more right rows and the current group doesn't match: keys ascend,
    // so no later left row can match either.
    if (!right_valid_) return false;
    const int64_t rkey = right_in_.row()[right_key_col_].AsInt64();
    engine_->cpu().ChargeHashOp();
    if (lkey < rkey) {
      left_valid_ = AdvanceLeft();
    } else if (lkey > rkey) {
      right_valid_ = AdvanceRight();
    } else {
      CollectRightGroup(rkey);
      group_idx_ = 0;
    }
  }
  return false;
}

}  // namespace smoothscan
