// Concrete operators: access-path adapter, filter, sort, hash join,
// index-nested-loops join and hash aggregation — all batch-first.
// FilterOp uses the batch's selection vector (no row is copied to drop a
// row); pipeline-breaking operators (sort, aggregate, hash-join build)
// consume their children batch-at-a-time. Joins build each output row in a
// warm batch slot (ConcatInto, inner look-ups via HeapFile::ReadInto), so
// their steady state allocates nothing; the aggregate groups on a hash of
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

/// Adapts an AccessPath (table leaf) into the operator tree. Batches flow
/// through without re-buffering.
class ScanOp : public Operator {
 public:
  explicit ScanOp(std::unique_ptr<AccessPath> path) : path_(std::move(path)) {}
  const char* name() const override { return path_->name(); }
  const AccessPath* path() const { return path_.get(); }

 protected:
  Status OpenImpl() override { return path_->Open(); }
  bool NextBatchImpl(TupleBatch* out) override {
    return path_->NextBatch(out);
  }
  void CloseImpl() override { path_->Close(); }

 private:
  std::unique_ptr<AccessPath> path_;
};

/// Filters tuples by an arbitrary predicate, marking survivors in the
/// batch's selection vector.
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

/// Blocking sort by a caller-supplied comparator; charges n log n CPU.
class SortOp : public Operator {
 public:
  SortOp(Engine* engine, std::unique_ptr<Operator> child,
         std::function<bool(const Tuple&, const Tuple&)> less)
      : engine_(engine), child_(std::move(child)), less_(std::move(less)) {}

  const char* name() const override { return "Sort"; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  Engine* engine_;
  std::unique_ptr<Operator> child_;
  std::function<bool(const Tuple&, const Tuple&)> less_;
  std::vector<Tuple> rows_;
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
