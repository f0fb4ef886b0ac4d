// HeapFile: an unordered collection of tuples stored in slotted pages, the
// physical representation of a table. Appending is a build-time operation;
// query-time reads go through the buffer pool and are I/O-accounted.

#ifndef SMOOTHSCAN_STORAGE_HEAP_FILE_H_
#define SMOOTHSCAN_STORAGE_HEAP_FILE_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "storage/engine.h"
#include "storage/exec_context.h"
#include "storage/schema.h"

namespace smoothscan {

/// A heap-organized table file. Owns no storage itself; pages live in the
/// engine's StorageManager under `file_id()`.
class HeapFile {
 public:
  /// Creates an empty heap file named `name` inside `engine`.
  HeapFile(Engine* engine, std::string name, Schema schema);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends `tuple`, returning its TID. Build-time: not I/O-accounted.
  Result<Tid> Append(const Tuple& tuple);

  /// Decodes the tuple at `tid` into `out`, reusing its storage (a warm
  /// batch slot). The per-row look-up of every operator: one
  /// BufferPool::Lookup on `ctx`'s pool (I/O-accounted, no pin), then a
  /// decode straight from the storage manager, whose pages do not change
  /// under the table's read lease.
  void ReadInto(Tid tid, const ExecContext& ctx, Tuple* out) const;

  /// Decodes live `slot` of `page`, one of this file's pages the caller has
  /// already accounted for, into `out` (ReadInto after its look-up; a
  /// page-run reader decodes every look-up on one page under one fetch).
  void DecodeInto(const Page& page, SlotId slot, Tuple* out) const {
    uint32_t size = 0;
    const uint8_t* data = page.GetTuple(slot, &size);
    // Reading a tombstoned Tid is a bug: index maintenance removes an entry
    // in the same publish that kills its slot.
    SMOOTHSCAN_CHECK(data != nullptr);
    schema_.DeserializeInto(data, size, out);
  }

  /// Prefetch hints for a coming look-up of `tid` (see Page::PrefetchSlot):
  /// no buffer-pool access, no charge, no effect on any result.
  void PrefetchSlot(Tid tid) const {
    engine_->storage().GetPage(file_id_, tid.page_id).PrefetchSlot(tid.slot);
  }
  void PrefetchTuple(Tid tid) const {
    engine_->storage().GetPage(file_id_, tid.page_id).PrefetchTuple(tid.slot);
  }

  /// Same through the engine's own pool, returning a fresh tuple (tests and
  /// build-time code).
  Tuple Read(Tid tid) const;

  /// Build-time full iteration without I/O accounting (loaders, oracles and
  /// test baselines). `fn` receives (tid, tuple).
  void ForEachDirect(
      const std::function<void(Tid, const Tuple&)>& fn) const;

  /// Adjusts the live-tuple count (snapshot publish applies the era's net
  /// insert/delete delta; see write/table_version.h).
  void AddTuples(int64_t delta) {
    num_tuples_ = static_cast<uint64_t>(
        static_cast<int64_t>(num_tuples_) + delta);
  }

  FileId file_id() const { return file_id_; }
  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  size_t num_pages() const { return engine_->storage().NumPages(file_id_); }
  uint64_t num_tuples() const { return num_tuples_; }
  Engine* engine() const { return engine_; }

 private:
  Engine* engine_;
  std::string name_;
  Schema schema_;
  FileId file_id_;
  PageId tail_page_ = kInvalidPageId;
  uint64_t num_tuples_ = 0;
  std::vector<uint8_t> scratch_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_HEAP_FILE_H_
