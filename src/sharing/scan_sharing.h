// Scan sharing (QPipe-style cooperative scans): when N concurrent queries
// scan the same table, running N independent passes wastes N-1 of them — the
// pages are identical, only the predicates differ. The ScanSharingCoordinator
// instead elects ONE in-flight *circular chunk scan* per table: the table's
// page space is cut into fixed page-range chunks, a producer fetches each
// chunk exactly once through the shared BufferPool (pinned PageGuards), and
// every attached consumer reads the pinned pages and applies its own
// predicate. A late arrival attaches at the scan's current chunk and wraps
// around; after one full lap (every chunk exactly once) it detaches. Results
// therefore stay a pure function of the query — the multiset a consumer
// produces is identical to a solo scan's — while the *aggregate* pages
// fetched for N concurrent queries drop from ~N passes toward one.
//
// Delivery and pacing: chunk production runs as tasks on the shared
// TaskScheduler when one is provided (inline in the consumer's thread
// otherwise) and is bounded by a *slowest-consumer drift bound* — the
// producer never runs more than `drift_chunks` chunks ahead of the least
// advanced attached consumer, which caps the pinned chunk window at
// `drift_chunks * chunk_pages` pages and throttles fast consumers instead of
// letting the window grow without bound.
//
// Accounting: chunk fetches charge the engine's shared stream (they are paid
// once, on behalf of everyone), while each consumer's tuple inspection and
// production CPU flows through its own ExecContext — under the multi-query
// engine that is the query's private AccountingStack, so per-query CPU remains
// per-query while the I/O becomes communal. A shared-scan query's private
// pages_read is ~0 by design: the whole point is that it did not pay the
// pass.
//
// Groups are per table and persistent: when the last consumer detaches the
// circular scan simply parks at its current chunk, and the next arrival
// resumes from there (Crescando-style). The coordinator also hands out the
// per-table SharedSmoothGroup that backs the shared-SmoothScan mode (see
// smooth_scan.h).

#ifndef SMOOTHSCAN_SHARING_SCAN_SHARING_H_
#define SMOOTHSCAN_SHARING_SCAN_SHARING_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "access/smooth_scan.h"
#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "exec/task_scheduler.h"
#include "mem/memory_broker.h"
#include "storage/engine.h"
#include "storage/heap_file.h"

namespace smoothscan {

struct SharedScanOptions {
  /// Pages per chunk — the unit of production (one FetchExtent request) and
  /// of fan-out to consumers. Matches FullScan's default read-ahead window.
  uint32_t chunk_pages = 32;
  /// Slowest-consumer drift bound: the producer stays within this many chunks
  /// of the least advanced consumer, so at most `drift_chunks * chunk_pages`
  /// pages are pinned per group at any moment.
  uint32_t drift_chunks = 4;
  /// Chunk production runs as tasks on this pool (the engine's shared
  /// data-plane scheduler). Null: the consumer needing the chunk produces it
  /// inline.
  TaskScheduler* scheduler = nullptr;
  /// Memory broker each group reports its pinned window to (null =
  /// ungoverned). Under global pressure the effective drift bound drops to 1
  /// — the window sheds slack, but production never stops: correctness and
  /// per-consumer results are untouched, only pacing tightens.
  MemoryBroker* broker = nullptr;
};

/// One produced chunk of the circular scan: a page range held resident by
/// pinned guards until every consumer counted in `readers` has moved past it.
/// Immutable after production; concurrent consumers read `guards` freely.
struct SharedChunk {
  uint64_t seq = 0;        ///< Absolute position in the circular sequence.
  PageId first_page = 0;
  uint32_t num_pages = 0;
  std::vector<PageGuard> guards;  ///< One pin per page of the range.

 private:
  friend class SharedScanGroup;
  uint32_t readers = 0;  ///< Attached consumers still to consume it (under
                         ///< the group latch).
};

/// Counters of one table's scan group (snapshot under the group latch).
struct SharedScanGroupStats {
  uint64_t consumers_attached = 0;  ///< Total Attach() calls, ever.
  uint32_t active_consumers = 0;
  uint64_t chunks_produced = 0;
  uint64_t pages_fetched = 0;  ///< Pages covered by production requests.
  uint64_t drift_sheds = 0;    ///< Productions deferred by broker pressure.
  uint64_t chunk_claims = 0;   ///< Sum of lap chunks claimed by attaches;
                               ///< chunk_claims / chunks_produced is the
                               ///< sharing fan-out ratio.
};

class SharedScanGroup;

/// A consumer's handle on its group: pull chunks one at a time with
/// NextChunk() — each call releases the previously returned chunk — until it
/// returns null at the end of the lap (the consumer auto-detaches). Detach()
/// cancels early. Move-only; detaches on destruction.
class SharedScanConsumer {
 public:
  SharedScanConsumer() = default;
  SharedScanConsumer(const SharedScanConsumer&) = delete;
  SharedScanConsumer& operator=(const SharedScanConsumer&) = delete;
  SharedScanConsumer(SharedScanConsumer&& other) noexcept { Swap(&other); }
  SharedScanConsumer& operator=(SharedScanConsumer&& other) noexcept {
    if (this != &other) {
      Detach();
      Swap(&other);
    }
    return *this;
  }
  ~SharedScanConsumer() { Detach(); }

  /// Releases the previously returned chunk (if any) and blocks until the
  /// consumer's next chunk is produced. Returns null once the lap is complete
  /// — the consumer is then detached — or when the handle is empty. The
  /// returned chunk stays valid until the next NextChunk()/Detach() call.
  const SharedChunk* NextChunk();

  /// Cancels the consumer: releases its held chunk and its claim on every
  /// produced-but-unconsumed chunk, and unblocks the group. Idempotent.
  void Detach();

  bool attached() const { return group_ != nullptr; }
  /// First chunk sequence of this consumer's lap (0 for the founder of a
  /// fresh group; > 0 after a mid-scan attach).
  uint64_t start_seq() const { return start_seq_; }
  /// Chunks of one full lap (= the group's chunk count).
  uint64_t lap_chunks() const { return lap_chunks_; }

 private:
  friend class SharedScanGroup;
  void Swap(SharedScanConsumer* other) {
    std::swap(group_, other->group_);
    std::swap(id_, other->id_);
    std::swap(start_seq_, other->start_seq_);
    std::swap(lap_chunks_, other->lap_chunks_);
  }

  std::shared_ptr<SharedScanGroup> group_;
  uint32_t id_ = 0;
  uint64_t start_seq_ = 0;
  uint64_t lap_chunks_ = 0;
};

/// One table's circular chunk scan (internal to the coordinator; consumers
/// interact through SharedScanConsumer).
class SharedScanGroup : public std::enable_shared_from_this<SharedScanGroup> {
 public:
  /// A group is defined by a page range, not a table: `file` may be a heap
  /// file or a compressed sibling extent — production only ever needs
  /// (file, num_pages), and every page access goes through the shared pool.
  SharedScanGroup(Engine* engine, FileId file, PageId num_pages,
                  SharedScanOptions options);

  SharedScanGroup(const SharedScanGroup&) = delete;
  SharedScanGroup& operator=(const SharedScanGroup&) = delete;

  SharedScanGroupStats stats() const EXCLUDES(mu_);
  uint64_t num_chunks() const { return num_chunks_; }

 private:
  friend class ScanSharingCoordinator;
  friend class SharedScanConsumer;

  struct ConsumerState {
    uint64_t next_seq = 0;  ///< Next chunk to consume (== held chunk's seq
                            ///< while one is held).
    uint64_t end_seq = 0;   ///< next_seq reaching this completes the lap.
    bool active = false;
    bool holding = false;   ///< Between NextChunk() and the release.
  };

  void Attach(SharedScanConsumer* out) EXCLUDES(mu_);
  const SharedChunk* NextChunk(uint32_t id) EXCLUDES(mu_);
  void Detach(uint32_t id) EXCLUDES(mu_);

  bool CanProduceLocked() REQUIRES(mu_);
  void ProduceOneLocked() REQUIRES(mu_);
  /// Produces while capacity allows, then wakes waiters.
  void PumpRunLocked() REQUIRES(mu_);
  /// Ensures production is in flight: schedules a pump task (or runs it
  /// inline without a scheduler) unless one is already pending.
  void PumpLocked() REQUIRES(mu_);
  void ReleaseHeldLocked(ConsumerState* c) REQUIRES(mu_);
  void DropClaimsLocked(uint64_t from_seq, uint64_t end_seq) REQUIRES(mu_);
  void PopFreeChunksLocked() REQUIRES(mu_);

  Engine* const engine_;
  const FileId file_;
  const PageId num_pages_;
  const SharedScanOptions options_;
  const uint64_t num_chunks_;
  /// Broker charge for the pinned chunk window (page bytes under guards).
  MemoryBroker::Consumer mem_;

  /// Held across chunk production: fetches through the shared pool (shard
  /// latches), broker window charges and pump-task submission all nest under
  /// the group latch, hence its rank above scheduler/pool/broker.
  mutable latch::Latch mu_{latch::LatchRank::kSharedGroup,
                           "SharedScanGroup::mu_"};
  std::condition_variable_any cv_;  ///< Signaled on production and detach.
  /// Produced, not-yet-released chunks: seqs [window_base_, head_seq_).
  std::deque<std::shared_ptr<SharedChunk>> window_ GUARDED_BY(mu_);
  uint64_t window_base_ GUARDED_BY(mu_) = 0;
  uint64_t head_seq_ GUARDED_BY(mu_) = 0;  ///< Next sequence to produce.
  /// Indexed by consumer id. A deque: consumers hold references across
  /// cv_ waits, so Attach() must never invalidate them. Slots of detached
  /// consumers are recycled through free_ids_ (safe: a handle never touches
  /// its id again once the group deactivated it), so the deque is bounded by
  /// the group's peak concurrency, not its lifetime attach count.
  std::deque<ConsumerState> consumers_ GUARDED_BY(mu_);
  std::vector<uint32_t> free_ids_ GUARDED_BY(mu_);
  uint32_t active_consumers_ GUARDED_BY(mu_) = 0;
  bool pump_pending_ GUARDED_BY(mu_) = false;
  SharedScanGroupStats stats_ GUARDED_BY(mu_);
};

/// Aggregate counters over every group of the coordinator.
struct ScanSharingStats {
  uint64_t groups = 0;
  uint64_t consumers_attached = 0;
  uint32_t active_consumers = 0;
  uint64_t chunks_produced = 0;
  uint64_t pages_fetched = 0;
  uint64_t chunk_claims = 0;  ///< See SharedScanGroupStats::chunk_claims.
};

/// The per-engine registry of shared scans: one group per table, one shared
/// Smooth Scan page-cache group per table (see file comment).
class ScanSharingCoordinator {
 public:
  explicit ScanSharingCoordinator(Engine* engine,
                                  SharedScanOptions options = {});
  /// Every consumer must be detached first (queries drained).
  ~ScanSharingCoordinator();

  ScanSharingCoordinator(const ScanSharingCoordinator&) = delete;
  ScanSharingCoordinator& operator=(const ScanSharingCoordinator&) = delete;

  /// Attaches a consumer to `heap`'s circular scan, forming the group on
  /// first use (or resuming a parked one at its current chunk).
  SharedScanConsumer Attach(const HeapFile* heap);

  /// Same, over an arbitrary page range — the compressed tier attaches
  /// consumers to a table's compressed sibling extent (`file` = the sibling's
  /// FileId). The group is keyed by `file`, so heap and compressed groups of
  /// one table coexist and are invalidated independently. `num_pages` must
  /// match the file's page count and stays fixed for the group's lifetime
  /// (extents are immutable until invalidated).
  SharedScanConsumer AttachExtent(FileId file, PageId num_pages)
      EXCLUDES(mu_);

  /// The table's shared-SmoothScan group: attached Smooth Scans feed (and
  /// consult) one common concurrent Page ID Cache over the engine's shared
  /// pool. Created on first use; the same instance is handed to every caller.
  std::shared_ptr<SharedSmoothGroup> SmoothSharingFor(const HeapFile* heap)
      EXCLUDES(mu_);

  /// The group serving `heap`, or null before any Attach (tests,
  /// observability).
  std::shared_ptr<const SharedScanGroup> GroupFor(const HeapFile* heap) const
      EXCLUDES(mu_);

  /// Retires the table's parked groups after a snapshot publish: the circular
  /// scan's chunk decomposition (and the shared Smooth Scan's page-id bitmap)
  /// were sized to the pre-publish page count, so the next arrival must form
  /// a fresh group over the new snapshot. Requires zero active consumers —
  /// guaranteed at publish time, because every consumer's query holds a table
  /// read lease and publish only runs at quiescence (the "drain" half of
  /// drain-or-invalidate). No-op for tables without groups.
  void InvalidateFile(FileId file) EXCLUDES(mu_);

  ScanSharingStats stats() const EXCLUDES(mu_);

  Engine* engine() const { return engine_; }
  const SharedScanOptions& options() const { return options_; }

 private:
  Engine* const engine_;
  const SharedScanOptions options_;

  /// Ranked just above the group latch: stats()/InvalidateFile read group
  /// stats while holding the registry latch.
  mutable latch::Latch mu_{latch::LatchRank::kCoordinator,
                           "ScanSharingCoordinator::mu_"};
  std::unordered_map<FileId, std::shared_ptr<SharedScanGroup>> groups_
      GUARDED_BY(mu_);
  std::unordered_map<FileId, std::shared_ptr<SharedSmoothGroup>>
      smooth_groups_ GUARDED_BY(mu_);
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_SHARING_SCAN_SHARING_H_
