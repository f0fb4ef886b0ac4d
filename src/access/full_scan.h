// FullScan: sequential scan of the entire heap file (Section II, Fig. 2a).
// Reads pages in order with extent-sized read-ahead (modelling the disk
// prefetcher that makes sequential access 1–2 orders of magnitude faster than
// random access), inspects every tuple, and emits qualifiers in heap order.
// Vectorized: tuples are decoded straight into the output batch's recycled
// slots, so the hot loop performs no per-tuple allocation or dispatch.

#ifndef SMOOTHSCAN_ACCESS_FULL_SCAN_H_
#define SMOOTHSCAN_ACCESS_FULL_SCAN_H_

#include "access/access_path.h"
#include "index/bplus_tree.h"
#include "storage/heap_file.h"

namespace smoothscan {

struct FullScanOptions {
  /// Pages fetched per I/O request (read-ahead window).
  uint32_t read_ahead_pages = 32;
  /// Heap-page range [page_begin, page_end) to scan. The defaults cover the
  /// whole file; morsel-driven execution restricts each worker's scan to its
  /// page-range morsel.
  PageId page_begin = 0;
  PageId page_end = kInvalidPageId;
};

class FullScan : public AccessPath {
 public:
  FullScan(const HeapFile* heap, ScanPredicate predicate,
           FullScanOptions options = FullScanOptions());

  const char* name() const override { return "FullScan"; }

  /// The page loop behind NextBatch, minus its bookkeeping: appends
  /// qualifying tuples until `out` is full or the range ends and adds the
  /// work done to `work`, which the caller charges and folds into its own
  /// stats. Returns true when it stopped only because `out` filled up.
  /// `exclude` (null: none) suppresses every qualifying tuple whose (key,
  /// Tid) lies below it — the position where SwitchScan's index phase
  /// stopped, below which it produced every qualifying tuple — at one cache
  /// op per qualifying tuple. SwitchScan's post-switch phase and the
  /// parallel Switch kernel drive the scan through it. Valid between Open()
  /// and Close().
  bool Fill(TupleBatch* out, const IndexPosition* exclude, ScanWork* work);

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  const HeapFile* heap_;
  ScanPredicate predicate_;
  FullScanOptions options_;

  // Scan cursor: current page / slot, and the end of the extent already
  // requested from the disk (read-ahead is decoupled from batch size).
  PageId cur_page_ = 0;
  uint16_t cur_slot_ = 0;
  PageId window_end_ = 0;
  PageId num_pages_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_FULL_SCAN_H_
