// SharedScanPath: the consumer-facing access path over the cooperative
// circular scan (see scan_sharing.h). Open() attaches to the table's shared
// scan group; NextBatch() decodes qualifying tuples straight out of the
// group's pinned chunk pages with FullScan's page kernel (FillFromPage).
// The page *fetches* were paid once by the group on the engine's shared
// stream, so this path charges only its own inspection/production CPU to its
// ExecContext — under the QueryEngine that is the query's private stack.
//
// Result contract: one full lap delivers every heap page exactly once, so
// the produced multiset is identical to a solo FullScan's; only the order
// differs (a mid-scan attach starts mid-table and wraps around). Close()
// detaches — mid-lap if the consumer is cancelled.

#ifndef SMOOTHSCAN_SHARING_SHARED_SCAN_PATH_H_
#define SMOOTHSCAN_SHARING_SHARED_SCAN_PATH_H_

#include "access/full_scan.h"
#include "sharing/scan_sharing.h"
#include "storage/heap_file.h"

namespace smoothscan {

class SharedScanPath : public AccessPath {
 public:
  SharedScanPath(ScanSharingCoordinator* coordinator, const HeapFile* heap,
                 ScanPredicate predicate);

  const char* name() const override { return "SharedScan"; }

  /// Chunk sequence this consumer's lap started at (0 = it founded the
  /// group; > 0 = it attached to an in-flight scan and wrapped around).
  uint64_t start_seq() const { return start_seq_; }
  /// Chunks consumed in the current Open() cycle (== lap length at EOS).
  uint64_t chunks_consumed() const { return chunks_consumed_; }
  uint64_t lap_chunks() const { return lap_chunks_; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override {
    return EngineContext(heap_->engine());
  }

 private:
  ScanSharingCoordinator* coordinator_;
  const HeapFile* heap_;
  ScanPredicate predicate_;

  SharedScanConsumer consumer_;
  const SharedChunk* chunk_ = nullptr;  ///< Held until the next pull.
  uint32_t chunk_page_ = 0;             ///< Cursor within chunk_.
  uint16_t cur_slot_ = 0;
  bool done_ = false;
  uint64_t start_seq_ = 0;
  uint64_t chunks_consumed_ = 0;
  uint64_t lap_chunks_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_SHARING_SHARED_SCAN_PATH_H_
