// CompressedExtentMap: per-table registry of read-optimized compressed
// sibling extents (see compressed_page.h for the block format and
// compressed_scan.h for the access path that consumes them).
//
// A table's compressed extent is a *sibling file* of run/RLE-encoded blocks —
// one block per page, slot 0 — produced by folding the heap at publish
// quiescence. The sibling's pages are ordinary StorageManager pages cached as
// ordinary BufferPool frames: pinning, mirroring, eviction and SimDisk
// charging all apply unchanged. The map keeps, per extent, an in-memory zone
// map (per-block key min/max/run-count) so scans and index-only probes can
// skip whole compressed pages without any I/O — consulting a zone entry is
// charged as one cache_op, not a fetch.
//
// Lifecycle mirrors the parked shared-scan groups: the extent built against
// published epoch N serves readers until the *next* publish, at which point
// the QueryEngine's publish hook replaces it by folding the new heap content
// into a fresh sibling (scans already holding a CompressedExtentRef keep
// their snapshot — shared_ptr). Rebuild hygiene: the old frames are evicted
// from the engine pool (write-backs charged) before the sibling file is
// truncated, which aborts if any consumer still pins a compressed page —
// publish quiescence guarantees none does.
//
// Cost accounting: the initial Enable() is a load-time operation (free, like
// HeapFile::Append); publish-triggered rebuilds charge the engine's shared
// stream one extent write over the new sibling — communal maintenance work,
// exactly like dirty-page write-backs at flush.

#ifndef SMOOTHSCAN_COMPRESS_COMPRESSED_EXTENT_MAP_H_
#define SMOOTHSCAN_COMPRESS_COMPRESSED_EXTENT_MAP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "compress/compressed_page.h"
#include "storage/heap_file.h"

namespace smoothscan {

/// In-memory zone-map entry of one compressed block (= one sibling page).
struct CompressedBlockMeta {
  int64_t key_min = 0;
  int64_t key_max = 0;
  uint32_t tuples = 0;
  uint32_t key_runs = 0;
  uint64_t row_begin = 0;  ///< Prefix sum of tuples (index-only counting).
};

/// One immutable published compressed extent. Readers hold it by shared_ptr
/// (CompressedExtentRef) — invalidation swaps the registry's pointer, never
/// mutates a published extent.
struct CompressedExtent {
  FileId table = 0;        ///< Heap file this extent mirrors.
  FileId file = 0;         ///< Sibling file holding the compressed pages.
  int key_column = 0;
  const Schema* schema = nullptr;
  uint64_t version = 0;    ///< Bumped per rebuild (staleness diagnostics).
  uint64_t num_tuples = 0;
  uint64_t key_runs = 0;       ///< Sum over blocks: run density.
  uint64_t encoded_bytes = 0;  ///< Sum of serialized block sizes.
  PageId source_pages = 0;     ///< Heap pages folded in.
  std::vector<CompressedBlockMeta> blocks;  ///< One per sibling page.

  PageId num_pages() const { return static_cast<PageId>(blocks.size()); }
  /// Heap pages per compressed page (>= 1 in practice; the chooser's ratio).
  double page_ratio() const {
    return blocks.empty() ? 1.0
                          : static_cast<double>(source_pages) /
                                static_cast<double>(blocks.size());
  }
  /// Average key-run length (tuples per run): run density for CPU costing.
  double avg_run_length() const {
    return key_runs == 0 ? 1.0
                         : static_cast<double>(num_tuples) /
                               static_cast<double>(key_runs);
  }
};

using CompressedExtentRef = std::shared_ptr<const CompressedExtent>;

/// Registry + producer of compressed extents (see file comment).
class CompressedExtentMap {
 public:
  explicit CompressedExtentMap(Engine* engine) : engine_(engine) {}

  CompressedExtentMap(const CompressedExtentMap&) = delete;
  CompressedExtentMap& operator=(const CompressedExtentMap&) = delete;

  /// Registers `heap` for compression on `key_column` and builds the initial
  /// extent (load-time: no I/O charged). Returns null — without registering —
  /// when the schema is not fixed-width or the key column is not INT64/DATE.
  CompressedExtentRef Enable(const HeapFile* heap, int key_column)
      EXCLUDES(mu_);

  /// Current extent of `table`, or null (not enabled).
  CompressedExtentRef Lookup(FileId table) const EXCLUDES(mu_);

  /// Folds the heap's published content into a fresh sibling extent,
  /// charging the engine stream one extent write over the new pages; the
  /// QueryEngine's publish hook calls it. Evicts the old sibling frames from
  /// the engine pool first — aborts if any is pinned. Returns null when
  /// `table` was never enabled.
  CompressedExtentRef Rebuild(FileId table) EXCLUDES(mu_);

  /// Rebuilds performed (tests / diagnostics).
  uint64_t rebuilds() const EXCLUDES(mu_) {
    latch::LatchGuard lock(mu_);
    return rebuilds_;
  }

 private:
  struct TableEntry {
    const HeapFile* heap = nullptr;
    int key_column = 0;
    FileId file = 0;          ///< Sibling file id (created once, reused).
    uint64_t version = 0;
    CompressedExtentRef current;  ///< Null only while rebuilding.
  };

  /// Folds the heap into the (already truncated) sibling file. Storage walk
  /// only, so holding the latch is fine.
  CompressedExtentRef BuildLocked(TableEntry* entry, bool charge_write)
      REQUIRES(mu_);

  Engine* engine_;
  /// Held across rebuilds, which evict sibling frames (pool shards), truncate
  /// the sibling (storage) and charge the engine stream (disk) — hence its
  /// rank above all three.
  mutable latch::Latch mu_{latch::LatchRank::kCompressedMap,
                           "CompressedExtentMap::mu_"};
  std::unordered_map<FileId, TableEntry> tables_ GUARDED_BY(mu_);
  uint64_t rebuilds_ GUARDED_BY(mu_) = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMPRESS_COMPRESSED_EXTENT_MAP_H_
