// SortScan (PostgreSQL's Bitmap Heap Scan; Section II). Collects all
// qualifying TIDs from the index, sorts them in heap-page order, then fetches
// the matching pages (and only those) with a nearly sequential pattern. The
// price is a blocking execution model, and — when the consumer needs the
// index order — a posterior sort of the result tuples. Batches are emitted as
// dense slices of the materialized result.

#ifndef SMOOTHSCAN_ACCESS_SORT_SCAN_H_
#define SMOOTHSCAN_ACCESS_SORT_SCAN_H_

#include <functional>
#include <vector>

#include "access/access_path.h"
#include "index/bplus_tree.h"

namespace smoothscan {

struct SortScanOptions {
  /// Re-sort the results by index key before emitting, restoring the
  /// "interesting order" that TID sorting destroyed (Section II's discussion
  /// of the broken natural index ordering).
  bool preserve_order = false;
};

/// Extent-coalescing cap of the sorted-TID heap phase: chunks stay well below
/// the buffer-pool capacity so a long run of consecutive result pages is
/// consumed before any of it is evicted.
inline constexpr uint32_t kSortScanChunkPages = 64;

/// SortScan phases 1-2: the TIDs of the qualifying index entries, sorted in
/// heap order. Charges the leaf walk and the sort to `ctx`.
std::vector<Tid> CollectSortedTids(const BPlusTree* index,
                                   const ScanPredicate& predicate,
                                   const ExecContext& ctx);

/// SortScan phase 3 over the sorted `tids[begin, end)`: fetches the result
/// pages as coalesced extents (capped at kSortScanChunkPages), reads each
/// entry's tuple into one reused scratch tuple and hands every one passing
/// the residual predicate to `sink` (valid only for the call), in TID order.
/// Charges inspect and produce once, at the end.
/// Returns the counters; tuples_produced counts the tuples handed to `sink`.
AccessPathStats FetchSortedTids(
    const HeapFile* heap, const ScanPredicate& predicate,
    const std::vector<Tid>& tids, size_t begin, size_t end,
    const ExecContext& ctx,
    const std::function<void(const Tid&, const Tuple&)>& sink);

class SortScan : public AccessPath {
 public:
  SortScan(const BPlusTree* index, ScanPredicate predicate,
           SortScanOptions options = SortScanOptions());

  const char* name() const override { return "SortScan"; }

  /// Heap pages fetched (distinct by construction).
  uint64_t pages_fetched() const { return pages_fetched_; }

 protected:
  /// Blocking: performs the index traversal, TID sort and all heap I/O.
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override {
    results_.clear();
    results_.shrink_to_fit();
    next_result_ = 0;
  }
  ExecContext DefaultContext() const override;

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SortScanOptions options_;

  std::vector<Tuple> results_;
  size_t next_result_ = 0;
  uint64_t pages_fetched_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SORT_SCAN_H_
