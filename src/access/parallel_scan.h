// ParallelScan: morsel-driven parallel execution of the access paths
// (Leis et al.'s morsel model adapted to the paper's simulated substrate).
//
// A kernel decomposes its scan into a fixed list of morsels — page ranges or
// key ranges, derived from the data alone, never from the worker count — plus
// an optional serial prolog (index leaf walks, TID sorts, pre-switch index
// phases). Tasks on a worker pool run the morsels, lowest index first, each
// against a private morsel AccountingStack (its own simulated disk, buffer
// pool and CPU meter: one logical access stream per morsel). Produced batches
// flow through per-morsel output slots that the consumer drains in morsel
// order. A ParallelScan is an Operator like every access path, so it sits
// directly under its parent operator as the plan's exchange.
//
// One implementation per access path: a kernel's per-morsel work is a cursor
// over the *serial* operator restricted to the morsel — FullScan over a page
// range, IndexScan over a key range, SmoothScan over the morsel's bucket of
// leaf entries with regions clipped at the range end, FullScan's page loop
// for the post-switch phase of SwitchScan, and SortScan's sorted-TID cursor
// over the morsel's slice. The prologs run the serial operators' own phase
// functions too, so no kernel has a harvest loop of its own. Smooth Scan's
// morph state carries across morsels: its prolog dry-runs the region policy
// over the leaf walk's pages in morsel order, and each morsel starts from the
// region size and selectivity counters the dry run reached before it. A
// one-morsel parallel scan therefore charges exactly what the serial operator
// charges, with one difference: the index leaf walk of Sort, Switch and
// Smooth Scan (and Smooth Scan's dry run) runs on the planning stream, before
// any heap I/O, instead of interleaved with the heap accesses on the
// operator's one stream.
//
// Determinism: because the decomposition is DOP-independent and every
// morsel's accounting is stream-local, the simulated cost of a parallel scan
// is bit-identical at any degree of parallelism — stacks merge into the
// scan's context in morsel order, fixing even the floating-point summation
// order. For the page-range FullScan decomposition the per-morsel streams are
// seeded at `page_begin - 1` (the position the serial scan would have),
// making the parallel I/O bit-identical to the *serial* scan as well.
// Wall-clock time is the only thing the workers change.
//
// Accounting and observability work as for every AccessPath: the settled
// morsel streams merge into ctx().disk / ctx().cpu, every morsel stack
// mirrors into ctx().pool's mirror and borrows ctx().batch_pool (the engine's
// pool, or the query's, which charges the query's memory account), and worker
// spans go to the SetObs handle. Counts reach its registry once per cycle:
// the planning and morsel pools' stats where the stacks merge, and each
// morsel operator's stats at its own Close. The batch pool's counts are its
// owner's to add.
//
// Ordering: workers emit morsel-locally in scan order, and the consumer sees
// morsels in index order, so a page-range decomposition yields heap order and
// a key-range decomposition yields index-key order — but an order-*preserving*
// Smooth Scan needs a cross-morsel merge, so it is serial-only and rejected
// by its factory.
//
// Backpressure: every scan runs on the worker pool its context hands out
// (the engine's one TaskScheduler, unless the context's owner supplied
// another) with the same window: at most kQueuedBatchesPerWorker x dop
// batches queued ahead of the consumer. Morsels are resumable cursors, not
// blocking tasks. A task fills its morsel batch by batch; once the window is
// full, a morsel past the consumer's parks — cursor and stack kept — and the
// task returns its worker. The consumer re-queues parked and unstarted
// morsels, lowest first, as it drains below half the window, and at once when
// it reaches a parked one. Its own morsel never parks, so it always makes
// progress, and no worker ever waits on a consumer. At most dop tasks of a
// scan are in flight. Parking changes when a morsel runs, never its charges.
//
// Run-to-completion: a started scan always executes every morsel, even when
// the consumer falls behind or Closes mid-stream: Close and the destructor
// drain the rest of the stream into the batch pool. This is deliberate:
// cancelling workers would make the charges of an abandoned run depend on
// scheduling, and the whole design exists to keep simulated cost
// schedule-independent. Consumers that need only a prefix of a huge result
// should bound the scan itself (predicate or page range), not rely on early
// Close to shed work.

#ifndef SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
#define SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <vector>

#include "access/access_path.h"
#include "access/full_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "exec/task_scheduler.h"
#include "mem/batch_pool.h"
#include "storage/exec_context.h"

namespace smoothscan {

/// The workers come from the scan's context (ExecContext::scheduler), the
/// window from `dop` (see the file comment).
struct ParallelScanOptions {
  /// Morsels in flight at once (1 = serial schedule, same cost); also sizes
  /// the window of queued batches.
  uint32_t dop = 1;
  /// Page-range morsel size; rounded to a multiple of the scan's read-ahead
  /// window so parallel extent boundaries coincide with the serial scan's.
  uint32_t morsel_pages = 128;
  /// Cap on the key-range decomposition of index-driven scans.
  uint32_t max_key_morsels = 32;
};

/// One unit of parallel scan work: a heap page range [page_begin, page_end)
/// or an index key range [key_lo, key_hi). `index` is the morsel's position
/// in the decomposition, the order accounting merges in.
struct Morsel {
  uint32_t index = 0;
  PageId page_begin = 0;
  PageId page_end = 0;
  int64_t key_lo = 0;
  int64_t key_hi = 0;
};

/// Fixed-size page-range decomposition of [0, num_pages). `morsel_pages`
/// should be a multiple of the scan's read-ahead window (AlignMorselPages)
/// so parallel extent boundaries coincide with the serial scan's.
std::vector<Morsel> PageRangeMorsels(PageId num_pages, uint32_t morsel_pages);

/// Key-range decomposition from ascending bounds {b0, ..., bk}: morsel i
/// covers keys [b_i, b_{i+1}); empty ranges are skipped.
std::vector<Morsel> KeyRangeMorsels(const std::vector<int64_t>& bounds);

/// One phase of a parallel scan in progress — a morsel, or a kernel's
/// emitting prolog. ParallelScan calls `fill` with a cleared pooled batch
/// until it returns false (the batch may still hold the last rows), then
/// `finish` once, which settles the phase's charges and returns its
/// counters. Between two fills a morsel may park and resume on any worker.
struct MorselCursor {
  std::function<bool(TupleBatch*)> fill;
  std::function<AccessPathStats()> finish;
};

/// The path-specific logic of a parallel scan. StartProlog() and Plan() run
/// serially on the consumer thread against the planning stream;
/// StartMorsel() runs once per morsel, each cursor against its own stream.
class ParallelScanKernel {
 public:
  virtual ~ParallelScanKernel() = default;
  virtual const char* name() const = 0;

  /// The smooth kernel's operator counters, merged over all morsels in
  /// morsel order (valid once the cycle settled — after the consumer drained
  /// the scan or Close). Empty for every other kernel. Lets tests reconcile
  /// the registry's smooth.* metrics, which each morsel's operator adds at
  /// its Close, against the merged stats at any DOP.
  virtual SmoothScanStats smooth_stats() const { return SmoothScanStats(); }

  /// Serial prolog that emits rows ahead of every morsel (Switch Scan's
  /// index phase), run to completion on the planning stream before Plan();
  /// empty for kernels without one.
  virtual MorselCursor StartProlog(const ExecContext&) { return {}; }

  /// Builds the morsel list. Charged to the planning stream.
  virtual std::vector<Morsel> Plan(const ExecContext& planning) = 0;

  /// Starts one morsel's cursor against `ctx`, the morsel's stream. It must
  /// touch only morsel-local and read-only state (plus explicitly
  /// thread-safe shared structures).
  virtual MorselCursor StartMorsel(const Morsel& morsel,
                                   const ExecContext& ctx) = 0;

 protected:
  /// The owning scan's observability handle for the current cycle (may be
  /// null), for kernels whose serial operators emit metrics and traces.
  const obs::ObsContext* obs() const { return obs_; }

 private:
  friend class ParallelScan;
  const obs::ObsContext* obs_ = nullptr;
};

/// The kernel of the paths with no prolog beyond the decomposition: every
/// morsel drains one serial operator built for it (Full, Index and
/// Compressed Scan; the factories supply the two steps).
class DrainKernel : public ParallelScanKernel {
 public:
  using PlanFn = std::function<std::vector<Morsel>()>;
  using ScanFn = std::function<std::unique_ptr<AccessPath>(
      const Morsel&, const ExecContext&)>;

  DrainKernel(const char* name, PlanFn plan, ScanFn scan)
      : name_(name), plan_(std::move(plan)), scan_(std::move(scan)) {}

  const char* name() const override { return name_; }
  std::vector<Morsel> Plan(const ExecContext&) override { return plan_(); }
  MorselCursor StartMorsel(const Morsel& m, const ExecContext& ctx) override;

 private:
  const char* name_;
  PlanFn plan_;
  ScanFn scan_;
};

/// Rounds a page-range morsel size down to a multiple of the read-ahead
/// window (and up to at least one window), so parallel extent requests
/// coincide with the serial scan's.
uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead);

/// AccessPath running a kernel on a worker pool (see file comment). Under
/// its parent operator it is a plan's exchange boundary.
class ParallelScan : public AccessPath {
 public:
  /// Window per unit of DOP: batches a scan keeps queued ahead of its
  /// consumer before morsels past the consumer's park (see the file
  /// comment). Measured with perfbench tpch_parallel (dop 2) on a 4-core
  /// host: 4 or 8 batches per worker hold the engine's batch pool at about
  /// 30 batches instead of about 100, with no loss of throughput.
  static constexpr size_t kQueuedBatchesPerWorker = 8;

  ParallelScan(Engine* engine, std::unique_ptr<ParallelScanKernel> kernel,
               ParallelScanOptions options);
  /// Drains a stream still open (see Run-to-completion).
  ~ParallelScan() override;

  const char* name() const override { return kernel_->name(); }
  uint32_t dop() const { return options_.dop; }
  /// Valid after Open().
  size_t num_morsels() const { return morsels_.size(); }
  const ParallelScanKernel* kernel() const { return kernel_.get(); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  /// Where a slot's phase stands. Slot 0 (the prolog) is kDone from Open.
  enum class RunState : uint8_t { kUnstarted, kRunning, kParked, kDone };

  /// Per-slot output queue: slot 0 is the prolog, slot i+1 is morsel i. A
  /// vector + head cursor instead of a deque: entries are tiny pool handles,
  /// pushes amortize into the retained capacity, and a drained slot frees in
  /// one shot.
  struct Slot {
    std::vector<PooledBatch> batches;
    size_t head = 0;
    RunState state = RunState::kUnstarted;
  };

  /// A morsel (or planning) stack inheriting this cycle's context.
  std::unique_ptr<AccountingStack> NewStack() const;
  /// The one fill loop of every phase: fills slot `s` from `cursor`. True
  /// once exhausted; false when `s`, past the consumer's slot, must park.
  bool FillSlot(size_t s, const MorselCursor& cursor, BatchPool* pool)
      EXCLUDES(mu_);
  /// Task body: runs slot `s`, then each slot PickLocked() offers.
  void RunSlots(size_t s) EXCLUDES(mu_);
  /// The lowest unstarted or parked slot at or past the consumer's, if it
  /// is the consumer's or the window has room; 0 for none.
  size_t PickLocked() const REQUIRES(mu_);
  /// Submits a task per slot PickLocked() offers, up to dop in flight.
  void DispatchLocked() REQUIRES(mu_);
  /// The consumer's next batch in morsel order; null at the end of stream.
  PooledBatch Take() EXCLUDES(mu_);
  /// Drops the rest of the stream; no task of this scan is in flight after.
  void Drain() EXCLUDES(mu_);
  /// Drains, then merges all stream accounting into ctx() in slot order
  /// (planning first), adding the streams' pool stats to the registry.
  /// Idempotent per cycle.
  void Finalize();
  size_t window() const { return kQueuedBatchesPerWorker * options_.dop; }

  Engine* engine_;
  std::unique_ptr<ParallelScanKernel> kernel_;
  ParallelScanOptions options_;
  TaskScheduler* scheduler_ = nullptr;  ///< This cycle's, from ctx().

  std::vector<Morsel> morsels_;
  /// Per slot: the planning stream (slot 0), then one per morsel. Touched by
  /// the task running the slot (hand-offs go through mu_), and by the
  /// consumer before the first task and after the last.
  struct Run {
    std::unique_ptr<AccountingStack> stack;
    MorselCursor cursor;  ///< Empty until started, and again once finished.
    AccessPathStats stats;
  };
  std::vector<Run> runs_;
  bool finalized_ = true;

  /// Clearing a drained slot under this latch runs PooledBatch destructors
  /// (→ batch pool, broker), and re-queuing a morsel submits to the
  /// scheduler — hence its rank above all three. A task's last touch of the
  /// scan is its exit under it.
  latch::Latch mu_{latch::LatchRank::kParallelScan, "ParallelScan::mu_"};
  std::condition_variable_any cv_;  ///< Workers -> consumer.
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  size_t emit_slot_ GUARDED_BY(mu_) = 0;
  size_t queued_ GUARDED_BY(mu_) = 0;       ///< Morsel batches not taken.
  uint32_t in_flight_ GUARDED_BY(mu_) = 0;  ///< Tasks submitted, not left.
  // Consumer-thread-only staging of the batch being drained; never touched by
  // workers, so deliberately outside the latch.
  PooledBatch pending_;
  size_t pending_pos_ = 0;
};

/// Kernel factories. MakeParallelSmoothScan returns null for configurations
/// whose semantics require a serial scan (order preservation, a non-eager
/// trigger, a shared group); callers fall back to the serial operator. Like
/// the serial constructors, the index-driven factories abort on a predicate
/// that is not on the index key.
std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
