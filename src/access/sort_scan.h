// SortScan (PostgreSQL's Bitmap Heap Scan; Section II). Collects all
// qualifying TIDs from the index, sorts them in heap-page order, then fetches
// the matching pages (and only those) with a nearly sequential pattern. The
// price is a blocking TID sort, and — when the consumer needs the index
// order — a posterior sort of the result tuples.
//
// Open blocks only on the leaf walk and the TID sort. The heap phase then
// streams: a SortedTidCursor decodes the next TIDs straight into the caller's
// batch, so an unordered scan buffers no row. The ordered scan drains the
// cursor at Open (its posterior sort needs every row) and emits the sorted
// rows afterwards.

#ifndef SMOOTHSCAN_ACCESS_SORT_SCAN_H_
#define SMOOTHSCAN_ACCESS_SORT_SCAN_H_

#include <utility>
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

/// CollectSortedTids sorts at least this many TIDs in linear time, with two
/// stable counting passes (slot, then page); fewer go through a comparison
/// sort, which beats clearing a histogram with one bucket per heap page.
inline constexpr size_t kTidCountingSortMin = 64;

/// SortScan phases 1-2: the TIDs of the qualifying index entries, sorted in
/// heap order. Charges the leaf walk and the sort (n log2 n comparisons,
/// whichever sort runs) to `ctx`.
std::vector<Tid> CollectSortedTids(const BPlusTree* index,
                                   const ScanPredicate& predicate,
                                   const ExecContext& ctx);

/// SortScan phase 3, resumable: walks the sorted `tids[begin, end)`, fetching
/// the result pages as coalesced extents (capped at kSortScanChunkPages), and
/// decodes each page's run of TIDs under one pinned Fetch. The run's other
/// look-ups would each have hit that just-fetched page, so they are added to
/// the pool's hit count instead (BufferPool::AddHits): in a query-private
/// stack, every FetchExtent, Fetch and charge keeps the order and count of
/// one Fetch per TID. No pin outlives a Fill call.
class SortedTidCursor {
 public:
  /// An exhausted cursor over nothing.
  SortedTidCursor() = default;
  /// `predicate` and `tids` must outlive the cursor.
  SortedTidCursor(const HeapFile* heap, const ScanPredicate* predicate,
                  const std::vector<Tid>* tids, size_t begin, size_t end)
      : heap_(heap),
        predicate_(predicate),
        tids_(tids),
        next_(begin),
        extent_end_(begin),
        end_(end),
        charged_(false) {}

  /// Appends the tuples of the next TIDs that pass the residual predicate to
  /// `out`, until it is full or the TIDs run out. Returns false once they
  /// have run out, having charged the run (Finish).
  bool Fill(const ExecContext& ctx, TupleBatch* out);

  /// Charges inspect and produce for every tuple looked up so far, once per
  /// cursor: Fill calls it when the TIDs run out, and an owner that abandons
  /// the cursor calls it at Close, so the work done is charged either way.
  void Finish(const ExecContext& ctx);

  /// Counters so far: heap_pages_probed counts extent pages, and
  /// tuples_produced the tuples appended by Fill.
  const AccessPathStats& stats() const { return stats_; }

 private:
  const HeapFile* heap_ = nullptr;
  const ScanPredicate* predicate_ = nullptr;
  const std::vector<Tid>* tids_ = nullptr;
  size_t next_ = 0;        ///< Next TID to look up.
  size_t extent_end_ = 0;  ///< One past the fetched extent's last TID.
  size_t end_ = 0;
  bool charged_ = true;
  AccessPathStats stats_;
};

class SortScan : public AccessPath {
 public:
  SortScan(const BPlusTree* index, ScanPredicate predicate,
           SortScanOptions options = SortScanOptions());

  const char* name() const override { return "SortScan"; }

  /// Heap pages fetched (distinct by construction). Final once the scan is
  /// drained; an unordered scan fetches as it streams.
  uint64_t pages_fetched() const { return stats_.heap_pages_probed; }

 protected:
  /// Performs the index traversal and the TID sort; the ordered scan also
  /// runs the whole heap phase and the posterior sort here.
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SortScanOptions options_;

  std::vector<Tid> tids_;
  SortedTidCursor cursor_;
  /// Ordered scan only: the drained rows, and (key, row) in emission order.
  TupleBatch rows_{1};
  std::vector<std::pair<int64_t, uint32_t>> order_;
  size_t next_row_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SORT_SCAN_H_
