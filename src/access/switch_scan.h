// SwitchScan (Section III / VI-F): the straw-man run-time adaptivity. Runs a
// plain index scan while the produced cardinality stays within the
// optimizer's estimate; the moment the estimate is violated it abandons the
// index and restarts as a full table scan. The paper avoids duplicating the
// tuples already produced with a Tuple ID Cache; the index's strict (key,
// Tid) order makes that a single position instead: the index phase produced
// exactly the qualifying tuples below the entry it stopped at, and the full
// scan skips those. The binary switch bounds the worst case but creates the
// performance cliff Fig. 11 shows.

#ifndef SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_
#define SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_

#include <optional>

#include "access/access_path.h"
#include "access/full_scan.h"
#include "index/bplus_tree.h"

namespace smoothscan {

struct SwitchScanOptions {
  /// The optimizer's result-cardinality estimate; exceeding it triggers the
  /// switch to a full scan.
  uint64_t estimated_cardinality = 0;
};

class SwitchScan : public AccessPath {
 public:
  SwitchScan(const BPlusTree* index, ScanPredicate predicate,
             SwitchScanOptions options);

  const char* name() const override { return "SwitchScan"; }

  bool switched() const { return switched_; }

  /// The index phase behind NextBatch, minus its bookkeeping: appends until
  /// `out` is full, the range ends, or the estimate is violated (which sets
  /// switched()), adding the work done to `work` for the caller to charge.
  /// Returns true when it stopped only because `out` filled up. The parallel
  /// Switch kernel runs its prolog through it. Valid from Open() on.
  bool IndexPhase(TupleBatch* out, ScanWork* work);
  /// Where the index phase stopped (the default until the switch fires):
  /// it produced exactly the qualifying tuples below this position, which
  /// is the post-switch scan's exclusion.
  const IndexPosition& stop() const { return stop_; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SwitchScanOptions options_;

  std::optional<BPlusTree::Iterator> it_;
  uint64_t produced_ = 0;  ///< Tuples the index phase produced.
  IndexPosition stop_;
  bool switched_ = false;
  /// The post-switch full scan (opened when the switch fires).
  std::optional<FullScan> full_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SWITCH_SCAN_H_
