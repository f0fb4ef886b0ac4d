// CompressedScan: the access path over a table's compressed sibling extent
// (see compressed_extent_map.h). Evaluates the key-range predicate *directly
// on the compressed runs* — a whole RLE run costs one comparison regardless
// of its length, and a whole block whose zone-map interval misses [lo, hi) is
// skipped without any I/O (one cache_op per zone consult) — then run-expands
// qualifying row ranges into the standard dense-fill TupleBatch. The produced
// multiset (and order: extent rows follow heap order) is identical to a
// FullScan of the heap; the simulated page fetches shrink by the compression
// ratio times the zone-skip rate.
//
// Fetch determinism: needed compressed pages are read as extent requests that
// never cross a kReadAheadPages-aligned page boundary — one request per aligned
// window's [first needed, last needed] span. Morsel decompositions align
// morsel boundaries to the same windows and seed each morsel's stream at the
// last needed page before its range (a pure function of the zone map and the
// predicate), so parallel I/O charges sum bit-identically to the serial
// scan's, per the substrate's DOP-invariance contract.
//
// Index-only mode emits one-column (key) tuples straight from the runs —
// selectivity/count probes never materialize the payload columns; residual
// predicates are rejected by construction. CompressedCountRange() goes one
// step further: blocks whose zone interval lies fully inside [lo, hi) are
// counted from the in-memory metadata without touching any page.
//
// Shared mode attaches to the sibling file's cooperative circular scan
// (ScanSharingCoordinator::AttachExtent): the group pays one communal pass
// over the compressed pages and every consumer zone-skips its own decode.

#ifndef SMOOTHSCAN_COMPRESS_COMPRESSED_SCAN_H_
#define SMOOTHSCAN_COMPRESS_COMPRESSED_SCAN_H_

#include <memory>
#include <utility>
#include <vector>

#include "access/access_path.h"
#include "access/parallel_scan.h"
#include "compress/compressed_extent_map.h"
#include "sharing/scan_sharing.h"

namespace smoothscan {

struct CompressedScanOptions {
  /// Compressed-page range [page_begin, page_end) to scan; defaults cover
  /// the extent. Morsel execution restricts each worker's range.
  PageId page_begin = 0;
  PageId page_end = kInvalidPageId;
  /// Emit one-column (key) tuples from the runs alone. Incompatible with a
  /// residual predicate (checked).
  bool index_only = false;
};

class CompressedScan : public AccessPath {
 public:
  /// Serial/morsel-range scan over `extent`.
  CompressedScan(Engine* engine, CompressedExtentRef extent,
                 ScanPredicate predicate,
                 CompressedScanOptions options = CompressedScanOptions());

  /// Shared-mode scan: consumes the sibling file's cooperative circular scan
  /// instead of fetching privately. Page-range options must cover the whole
  /// extent (a lap visits every chunk).
  CompressedScan(ScanSharingCoordinator* coordinator, CompressedExtentRef extent,
                 ScanPredicate predicate,
                 CompressedScanOptions options = CompressedScanOptions());

  const char* name() const override {
    return shared_ != nullptr ? "SharedCompressedScan" : "CompressedScan";
  }

  const CompressedExtent& extent() const { return *extent_; }
  /// Compressed pages whose zone interval intersected the predicate (valid
  /// after Open; the complement was skipped without I/O).
  uint64_t blocks_needed() const { return needed_.size(); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override {
    return EngineContext(engine_);
  }

 private:
  /// Decodes the block on compressed page `page` (already resident/pinned by
  /// `guard`'s pool) into ranges_ + column scratch; true when any row
  /// qualifies.
  bool DecodeBlock(PageId page, const Page& page_ref);
  /// Emits decoded rows into `out` until the batch fills or the block drains;
  /// returns tuples emitted.
  uint64_t EmitDecoded(TupleBatch* out);

  bool NextBatchPrivate(TupleBatch* out);
  bool NextBatchShared(TupleBatch* out);

  Engine* engine_;
  ScanSharingCoordinator* shared_ = nullptr;
  CompressedExtentRef extent_;
  ScanPredicate predicate_;
  CompressedScanOptions options_;
  std::vector<ValueType> column_types_;

  // Zone-map plan (built in Open): needed pages and their aligned-window
  // fetch spans [first, first + count).
  std::vector<PageId> needed_;
  std::vector<std::pair<PageId, uint32_t>> spans_;
  size_t needed_idx_ = 0;
  size_t span_idx_ = 0;

  // Decoded-block emission state (survives across NextBatch calls: one block
  // holds up to kMaxBlockTuples > batch capacity rows).
  bool block_ready_ = false;
  std::vector<std::pair<uint32_t, uint32_t>> ranges_;
  size_t range_idx_ = 0;
  uint32_t row_ = 0;
  std::vector<std::vector<uint64_t>> cols_scratch_;

  // Shared-mode cursor.
  SharedScanConsumer consumer_;
  const SharedChunk* chunk_ = nullptr;
  uint32_t chunk_page_ = 0;
  bool shared_done_ = false;
};

/// Index-only range count: number of extent rows with key in [lo, hi).
/// Blocks fully inside the range are counted from in-memory zone metadata
/// (cache_op each, no I/O); straddling blocks are fetched and counted on
/// their runs. Charges `ctx` (pass the engine context for serial callers).
uint64_t CompressedCountRange(const CompressedExtentRef& extent, int64_t lo,
                              int64_t hi, const ExecContext& ctx);

/// Morsel-parallel compressed scan (page-range decomposition over the
/// extent, DOP-invariant; see file comment). Returns null when `predicate`
/// needs ordered output semantics no differently than FullScan — compressed
/// rows are emitted in extent order per morsel, merged in morsel order.
std::unique_ptr<ParallelScan> MakeParallelCompressedScan(
    Engine* engine, CompressedExtentRef extent, ScanPredicate predicate,
    CompressedScanOptions scan_options, ParallelScanOptions options);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMPRESS_COMPRESSED_SCAN_H_
