// MergeJoinOp: sort-merge join over two inputs already ordered by their join
// keys. This is the consumer the paper's Result Cache exists for: "if a Merge
// Join follows Smooth Scan, then the variant of Smooth Scan with the result
// caching will be used" (Section IV-B) — the ordered Smooth Scan feeds this
// operator directly, where a Sort Scan would first have to re-sort.

#ifndef SMOOTHSCAN_EXEC_MERGE_JOIN_H_
#define SMOOTHSCAN_EXEC_MERGE_JOIN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "storage/engine.h"

namespace smoothscan {

/// Inner equi-join of two key-ordered inputs. Inputs must be non-decreasing
/// on their join columns (verified with SMOOTHSCAN_CHECK in debug use).
/// Output = left columns ++ right columns.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(Engine* engine, std::unique_ptr<Operator> left,
              std::unique_ptr<Operator> right, int left_key_col,
              int right_key_col);

  const char* name() const override { return "MergeJoin"; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    right_group_.clear();
    left_->Close();
    right_->Close();
  }

 private:
  /// One merge step: produces the next joined row, or false at end. The
  /// sides are walked row by row through BatchCursors over their batches;
  /// output is batched by NextBatchImpl.
  bool NextRow(Tuple* out);
  bool AdvanceLeft();
  bool AdvanceRight();
  /// Collects the full run of right tuples equal to `key` into right_group_.
  void CollectRightGroup(int64_t key);

  Engine* engine_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  int left_key_col_;
  int right_key_col_;

  // Current row of each side: left_in_.row() / right_in_.row() while the
  // matching *_valid_ flag is set.
  BatchCursor left_in_;
  bool left_valid_ = false;
  int64_t left_last_key_ = 0;
  BatchCursor right_in_;
  bool right_valid_ = false;
  int64_t right_last_key_ = 0;

  // Current group of right tuples sharing one key (re-emitted for each equal
  // left tuple).
  std::vector<Tuple> right_group_;
  int64_t group_key_ = 0;
  bool group_valid_ = false;
  size_t group_idx_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_MERGE_JOIN_H_
