// Volcano-style relational operators layered above access paths, vectorized:
// like AccessPath, the one pull call is NextBatch() (up to one TupleBatch of
// output rows per virtual dispatch); consumers that walk a child row by row
// do so through a BatchCursor over its batches. The paper's TPC-H
// experiments (Fig. 4, Table II) need selections, joins (hash and
// index-nested-loops), aggregation, sorting and projection; the concrete
// operators provide exactly that, with all CPU work charged to the engine's
// meter per batch, amortized.
//
// Lifecycle mirrors AccessPath: Open() resets, NextBatch(b) clears and fills
// `b` returning false only at end of stream (and until re-Open), Close()
// releases state and permits re-Open. Implementations override OpenImpl /
// NextBatchImpl / CloseImpl; the base class owns the end-of-stream latch.

#ifndef SMOOTHSCAN_EXEC_OPERATOR_H_
#define SMOOTHSCAN_EXEC_OPERATOR_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/tuple_batch.h"
#include "storage/schema.h"

namespace smoothscan {

/// Abstract pipelined operator (batch-first; see file comment).
class Operator {
 public:
  virtual ~Operator() = default;

  Status Open();
  bool NextBatch(TupleBatch* out);
  void Close();
  virtual const char* name() const = 0;

 protected:
  virtual Status OpenImpl() = 0;
  virtual bool NextBatchImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() {}

 private:
  bool exhausted_ = false;  ///< End of stream reached (until re-Open).
};

/// Cursor over a child operator's batch stream, for probe-style consumers
/// (joins) that walk the child one row at a time while producing batches.
class BatchCursor {
 public:
  /// OpenImpl(): forget any buffered batch.
  void Reset() {
    batch_.Clear();
    idx_ = 0;
    valid_ = false;
  }

  /// Steps to the next row, pulling a fresh batch from `src` when the
  /// current one is consumed. Returns false at end of stream.
  bool Advance(Operator* src) {
    if (valid_) ++idx_;
    if (!valid_ || idx_ >= batch_.size()) {
      if (!src->NextBatch(&batch_)) {
        valid_ = false;
        return false;
      }
      idx_ = 0;
      valid_ = true;
    }
    return true;
  }

  /// The current row; valid only after Advance() returned true.
  const Tuple& row() const { return batch_.row(idx_); }

 private:
  TupleBatch batch_;
  size_t idx_ = 0;
  bool valid_ = false;
};

/// Writes `left ++ right` into `out` by element-wise assignment: a warm
/// batch slot keeps its Value and string storage, so a join fills it without
/// allocating.
inline void ConcatInto(const Tuple& left, const Tuple& right, Tuple* out) {
  out->resize(left.size() + right.size());
  std::copy(left.begin(), left.end(), out->begin());
  std::copy(right.begin(), right.end(), out->begin() + left.size());
}

/// Runs `op` to completion with batch pulls, appending produced tuples to
/// `out` (which may be null to discard them). Returns the tuple count.
uint64_t Drain(Operator* op, std::vector<Tuple>* out);

/// Same, with a caller-chosen batch capacity (ablation benchmarks).
uint64_t DrainBatched(Operator* op, std::vector<Tuple>* out,
                      size_t batch_size);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_OPERATOR_H_
