// Concrete operators: filter, sort, hash join, index-nested-loops join and
// hash aggregation — all batch-first, over any child Operator (an access
// path included). FilterOp swaps survivors into the batch's dense prefix (no
// row is copied to drop a row); pipeline-breaking operators (sort,
// aggregate, hash-join build) consume their children batch-at-a-time and
// keep rows by swapping them out of the batch. Joins build each output row
// in a warm batch slot (ConcatInto, inner look-ups via HeapFile::ReadInto),
// so their steady state allocates nothing; the aggregate groups on a hash of
// the typed group-by Values, compared with Value::operator==.

#ifndef SMOOTHSCAN_EXEC_OPERATORS_H_
#define SMOOTHSCAN_EXEC_OPERATORS_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "access/access_path.h"
#include "exec/operator.h"
#include "index/bplus_tree.h"

namespace smoothscan {

/// Filters tuples by an arbitrary predicate, in place: survivors are swapped
/// into the dense prefix of the child's batch, in order.
class FilterOp : public Operator {
 public:
  FilterOp(Engine* engine, std::unique_ptr<Operator> child,
           std::function<bool(const Tuple&)> predicate)
      : engine_(engine),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}

  const char* name() const override { return "Filter"; }

 protected:
  Status OpenImpl() override { return child_->Open(); }
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override { child_->Close(); }

 private:
  Engine* engine_;
  std::unique_ptr<Operator> child_;
  std::function<bool(const Tuple&)> predicate_;
};

/// The engine's one row sort: a blocking, stable, ascending sort by key
/// columns, each compared with Value::Compare; rows with equal keys keep
/// their arrival order. Every ordered plan uses it: MakePath wraps each path
/// that loses index order in one (the paper's posterior sort), and the TPC-H
/// plans end in one. It charges one ChargeSort(n) to its context after the
/// child drained. It is an access path so that it has a context: the
/// engine's unless one is injected, and an access-path child runs on the
/// sort's context and observability handle, so a query's sort and its scan
/// charge the same stack. Its stats are the child path's, once drained.
class SortOp : public AccessPath {
 public:
  SortOp(Engine* engine, std::unique_ptr<Operator> child,
         std::vector<int> key_columns);

  const char* name() const override { return "Sort"; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override { return EngineContext(engine_); }

 private:
  /// A row's first key and arrival index: the sort moves these, not rows.
  struct SortEntry {
    Value key;
    uint32_t row;
  };

  Engine* engine_;
  std::unique_ptr<Operator> child_;
  std::vector<int> key_columns_;
  std::vector<Tuple> rows_;  ///< In arrival order.
  std::vector<SortEntry> order_;
  size_t next_ = 0;
};

/// In-memory hash join: builds on the right child, probes with the left.
/// Output = left columns ++ right columns.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(Engine* engine, std::unique_ptr<Operator> left,
             std::unique_ptr<Operator> right, int left_key_col,
             int right_key_col)
      : engine_(engine),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_col_(left_key_col),
        right_key_col_(right_key_col) {}

  const char* name() const override { return "HashJoin"; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    table_.clear();
    matches_ = nullptr;
    probe_.Reset();
    left_->Close();
    right_->Close();
  }

 private:
  Engine* engine_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  int left_key_col_;
  int right_key_col_;

  std::unordered_map<int64_t, std::vector<Tuple>> table_;
  // Probe-side batch cursor and the match run of the current probe row.
  BatchCursor probe_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_idx_ = 0;
};

/// Index nested-loops join: for each outer tuple, looks the join key up in
/// the inner table's index and fetches matches from the inner heap (random
/// I/O per look-up — the "table look-up" pattern of the paper's Fig. 1
/// discussion). Output = outer columns ++ inner columns.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(std::unique_ptr<Operator> outer,
                        const BPlusTree* inner_index, int outer_key_col)
      : outer_op_(std::move(outer)),
        inner_index_(inner_index),
        outer_key_col_(outer_key_col) {}

  const char* name() const override { return "IndexNLJoin"; }

 protected:
  Status OpenImpl() override {
    pending_.clear();
    pending_idx_ = 0;
    outer_.Reset();
    return outer_op_->Open();
  }
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    pending_.clear();
    pending_.shrink_to_fit();
    outer_.Reset();
    outer_op_->Close();
  }

 private:
  std::unique_ptr<Operator> outer_op_;
  const BPlusTree* inner_index_;
  int outer_key_col_;
  BatchCursor outer_;
  std::vector<Tuple> pending_;  ///< Overflow of a match run past the batch.
  size_t pending_idx_ = 0;
  Tuple inner_;  ///< Warm scratch: each inner look-up decodes into it.
};

/// Aggregate function kinds.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate: fn over a numeric expression of the input tuple.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  /// Value extractor; ignored for kCount (may be null).
  std::function<double(const Tuple&)> expr;
};

/// Blocking hash aggregation. Output tuple = group-by columns (as stored) ++
/// one DOUBLE per aggregate. With no group-by columns produces exactly one
/// row (global aggregate).
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(Engine* engine, std::unique_ptr<Operator> child,
                  std::vector<int> group_by, std::vector<AggSpec> aggs)
      : engine_(engine),
        child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  const char* name() const override { return "HashAggregate"; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  struct GroupState {
    Tuple key_values;
    std::vector<double> acc;
    std::vector<uint64_t> counts;
  };

  /// Typed group-by key hash -> index into groups_ (hash collisions are
  /// resolved by comparing the key Values).
  using GroupIndex = std::unordered_multimap<uint64_t, size_t>;

  void Accumulate(const Tuple& t, GroupIndex* index);

  Engine* engine_;
  std::unique_ptr<Operator> child_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  std::vector<GroupState> groups_;
  size_t next_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_OPERATORS_H_
