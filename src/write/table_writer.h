// TableWriter: the mutation API of a heap table — INSERT / UPDATE / DELETE
// through the buffer pool, with free-space-map placement, B+-tree index
// maintenance and snapshot semantics from the TableVersionRegistry.
//
// Accounting: reading a target page into the buffer (the fetch a real system
// performs before modifying a frame) is charged through the caller's
// ExecContext — under the multi-query engine that is the write query's
// private AccountingStack, so write queries cost-isolate exactly like reads.
// Per-tuple mutation work charges CpuMeter::ChargeWriteTuple. The *write*
// I/O (dirty-page write-back) is communal: publish marks pages dirty in the
// engine's shared pool and the charge lands on the engine stream at the next
// pin-aware flush — the checkpointer's stream, not any one query's.
//
// Concurrency: every public op (or Apply batch) runs under the table's
// WriteTicket, so op batches serialize per table while readers proceed
// against the frozen base snapshot. One TableWriter instance per table —
// its free-space map assumes it sees every mutation.

#ifndef SMOOTHSCAN_WRITE_TABLE_WRITER_H_
#define SMOOTHSCAN_WRITE_TABLE_WRITER_H_

#include <cstdint>
#include <vector>

#include "index/bplus_tree.h"
#include "storage/exec_context.h"
#include "storage/heap_file.h"
#include "write/free_space_map.h"
#include "write/table_version.h"

namespace smoothscan {

/// One mutation of a write-query spec.
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  Tuple tuple;  ///< Payload (insert/update).
  Tid tid;      ///< Target (update/delete).

  static WriteOp MakeInsert(Tuple t) {
    WriteOp op;
    op.kind = Kind::kInsert;
    op.tuple = std::move(t);
    return op;
  }
  static WriteOp MakeUpdate(Tid tid, Tuple t) {
    WriteOp op;
    op.kind = Kind::kUpdate;
    op.tid = tid;
    op.tuple = std::move(t);
    return op;
  }
  static WriteOp MakeDelete(Tid tid) {
    WriteOp op;
    op.kind = Kind::kDelete;
    op.tid = tid;
    return op;
  }
};

struct TableWriterStats {
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t moved_updates = 0;  ///< Updates that relocated the tuple.
  uint64_t recycled_inserts = 0;  ///< Inserts placed into reclaimed space.
  uint64_t pages_appended = 0;
  /// Ops targeting an already-dead Tid — deterministic no-ops, so replaying
  /// one op stream always reproduces one table state.
  uint64_t skipped_dead = 0;
};

class TableWriter {
 public:
  /// A writer over `heap` maintaining `indexes` (all indexes on the table;
  /// they must outlive the writer). The registry provides latches and the
  /// COW era.
  TableWriter(HeapFile* heap, std::vector<BPlusTree*> indexes,
              TableVersionRegistry* registry);

  TableWriter(const TableWriter&) = delete;
  TableWriter& operator=(const TableWriter&) = delete;

  /// Inserts `tuple`, placing it via the free-space map (first page with
  /// room, else a fresh append page). Returns the new Tid.
  Result<Tid> Insert(const Tuple& tuple, const ExecContext& ctx);

  /// Rewrites the tuple at `tid`; relocates it when the new image no longer
  /// fits its page (the returned Tid then differs). kNotFound when `tid` is
  /// already dead.
  Result<Tid> Update(Tid tid, const Tuple& tuple, const ExecContext& ctx);

  /// Tombstones the tuple at `tid`. kNotFound when already dead.
  Status Delete(Tid tid, const ExecContext& ctx);

  /// Applies a whole op batch under one WriteTicket (the unit the
  /// QueryEngine admits as a write query). Ops targeting dead Tids are
  /// counted and skipped; the first hard error aborts the batch. `applied`
  /// (optional) receives the number of ops processed — including
  /// skipped-dead no-ops, excluding everything after an error.
  Status Apply(const std::vector<WriteOp>& ops, const ExecContext& ctx,
               uint64_t* applied = nullptr);

  HeapFile* heap() const { return heap_; }
  const TableWriterStats& stats() const { return stats_; }

 private:
  // All Do* helpers run under a held WriteTicket.
  Result<Tid> DoInsert(const Tuple& tuple, const ExecContext& ctx);
  Result<Tid> DoUpdate(Tid tid, const Tuple& tuple, const ExecContext& ctx);
  Status DoDelete(Tid tid, const ExecContext& ctx);

  /// Era-view of page `pid` for reading (overlay if present, else base),
  /// charging the fetch through `ctx` for base-resident pages.
  const Page* ReadView(PageId pid, const ExecContext& ctx, PageGuard* guard);

  /// Decodes the live tuple at `tid` from `page` (null if tombstoned).
  bool DecodeLive(const Page& page, Tid tid, Tuple* out) const;

  /// Lazily (re)builds the free-space map from the era view.
  void EnsureFsm();
  void UpdateFsm(PageId pid, const Page& page);

  /// Queues remove+insert ops for every index affected by an image change.
  void MaintainIndexes(const Tuple& old_tuple, Tid old_tid,
                       const Tuple* new_tuple, Tid new_tid);

  HeapFile* const heap_;
  const std::vector<BPlusTree*> indexes_;
  TableVersionRegistry* const registry_;
  const FileId file_;
  /// Usable bytes of an empty page — the hard ceiling on tuple size (an
  /// insert needing more returns kResourceExhausted instead of appending a
  /// page it could never fill).
  const uint32_t empty_page_usable_;

  FreeSpaceMap fsm_;
  bool fsm_built_ = false;
  std::vector<uint8_t> scratch_;
  TableWriterStats stats_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_WRITE_TABLE_WRITER_H_
