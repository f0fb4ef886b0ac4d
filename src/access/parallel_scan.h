// ParallelScan: morsel-driven parallel execution of the access paths
// (Leis et al.'s morsel model adapted to the paper's simulated substrate).
//
// A kernel decomposes its scan into a fixed list of morsels — page ranges or
// key ranges, derived from the data alone, never from the worker count — plus
// an optional serial prolog (index leaf walks, TID sorts, pre-switch index
// phases). Workers pull morsels from a shared MorselSource and run each one
// against a private morsel AccountingStack (its own simulated disk, buffer
// pool and CPU meter: one logical access stream per morsel). Produced batches
// flow through per-morsel output slots that the consumer drains in morsel
// order.
//
// One implementation per access path: a kernel's per-morsel work is a drain
// of the *serial* operator restricted to the morsel — FullScan over a page
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
// a key-range decomposition yields index-key order — but order-*preserving*
// configurations that need cross-morsel merges (SortScan/SmoothScan with
// preserve_order) are serial-only and rejected by the factories.
//
// Run-to-completion: a started scan always executes every morsel, even when
// the consumer falls behind or Closes mid-stream. This is deliberate:
// cancelling workers would make the charges of an abandoned run depend on
// scheduling, and the whole design exists to keep simulated cost
// schedule-independent. Consumers that need only a prefix of a huge result
// should bound the scan itself (predicate or page range), not rely on early
// Close to shed work.
//
// Backpressure: a scan that owns its workers keeps at most
// kQueuedBatchesPerWorker x dop batches queued ahead of the consumer; a
// worker emitting into a later morsel than the one the consumer drains waits
// for room, while the worker of the consumer's morsel never waits, so the
// consumer always makes progress. Waiting changes when a morsel runs, never
// what it charges. Close lifts the window, so an abandoned run still
// completes. Without it a slow consumer lets the whole result pile up in
// pooled batches, and the engine's pool would keep that storage for good. A
// scan on a shared scheduler queues without bound: a waiting task would hold
// a worker that another scan's consumer may be waiting on.

#ifndef SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
#define SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <vector>

#include "access/access_path.h"
#include "access/full_scan.h"
#include "access/morsel_source.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "common/latch_rank.h"
#include "common/thread_annotations.h"
#include "exec/task_scheduler.h"
#include "mem/batch_pool.h"
#include "storage/exec_context.h"

namespace smoothscan {

struct ParallelScanOptions {
  /// Workers draining the morsel queue (1 = serial schedule, same cost).
  uint32_t dop = 1;
  /// Page-range morsel size; rounded to a multiple of the scan's read-ahead
  /// window so parallel extent boundaries coincide with the serial scan's.
  uint32_t morsel_pages = 128;
  /// Cap on the key-range decomposition of index-driven scans.
  uint32_t max_key_morsels = 32;
  /// Optional shared worker pool; the scan owns a private one when null.
  TaskScheduler* scheduler = nullptr;
};

/// The path-specific logic of a parallel scan. Plan() runs serially on the
/// consumer thread against the planning stream; RunMorsel() runs once per
/// morsel, concurrently, each call against its own stream.
class ParallelScanKernel {
 public:
  /// Kernels Acquire() batches from ctx.batch_pool, fill, and emit; the
  /// consumer (or the pool handle's destructor) releases them — so batch
  /// storage cycles between producers and consumer without heap traffic.
  using EmitFn = std::function<void(PooledBatch&&)>;

  virtual ~ParallelScanKernel() = default;
  virtual const char* name() const = 0;

  /// The smooth kernel's operator counters, merged over all morsels in
  /// morsel order (valid once the cycle settled — after the consumer drained
  /// the scan or Close). Empty for every other kernel. Lets tests reconcile
  /// the registry's smooth.* metrics, which each morsel's operator adds at
  /// its Close, against the merged stats at any DOP.
  virtual SmoothScanStats smooth_stats() const { return SmoothScanStats(); }

  /// Serial prolog: builds the morsel list; may emit prolog tuples and
  /// accumulate prolog counters. Charged to the planning stream.
  virtual std::vector<Morsel> Plan(const ExecContext& planning,
                                   const EmitFn& emit,
                                   AccessPathStats* stats) = 0;

  /// Runs one morsel. Must touch only morsel-local and read-only state (plus
  /// explicitly thread-safe shared structures); charges `ctx`.
  virtual AccessPathStats RunMorsel(const Morsel& morsel,
                                    const ExecContext& ctx,
                                    const EmitFn& emit) = 0;

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
  std::vector<Morsel> Plan(const ExecContext&, const EmitFn&,
                           AccessPathStats*) override {
    return plan_();
  }
  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override;

 private:
  const char* name_;
  PlanFn plan_;
  ScanFn scan_;
};

/// Rounds a page-range morsel size down to a multiple of the read-ahead
/// window (and up to at least one window), so parallel extent requests
/// coincide with the serial scan's.
uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead);

/// AccessPath adapter running a kernel on a worker pool (see file comment).
/// Also usable as the source below a Gather exchange operator.
class ParallelScan : public AccessPath {
 public:
  /// Backpressure window per worker of a scan that owns its workers (see
  /// the file comment). Measured with perfbench tpch_parallel (dop 2) on a
  /// 4-core host: 4 or 8 batches per worker hold the engine's batch pool at
  /// about 30 batches instead of about 100, with no loss of throughput.
  static constexpr size_t kQueuedBatchesPerWorker = 8;

  ParallelScan(Engine* engine, std::unique_ptr<ParallelScanKernel> kernel,
               ParallelScanOptions options);
  ~ParallelScan() override;

  const char* name() const override { return kernel_->name(); }
  uint32_t dop() const { return options_.dop; }
  /// Valid after Open().
  size_t num_morsels() const { return source_ != nullptr ? source_->size() : 0; }
  const ParallelScanKernel* kernel() const { return kernel_.get(); }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  /// Per-slot output queue: slot 0 is the prolog, slot i+1 is morsel i. A
  /// vector + head cursor instead of a deque: entries are tiny pool handles,
  /// pushes amortize into the retained capacity, and a drained slot frees in
  /// one shot.
  struct Slot {
    std::vector<PooledBatch> batches;
    size_t head = 0;
    bool done = false;
  };

  /// The shared pool, or the owned one (built with `workers` threads).
  TaskScheduler* scheduler(uint32_t workers);
  /// A morsel (or planning) stack inheriting this cycle's context.
  std::unique_ptr<AccountingStack> NewStack() const;
  /// Queues `batch` on `slot`, first waiting for room (see Backpressure).
  void EmitTo(size_t slot, PooledBatch&& batch) EXCLUDES(mu_);
  /// Lifts the backpressure window, so every waiting worker proceeds.
  void Unthrottle() EXCLUDES(mu_);
  /// Waits for the workers and merges all stream accounting into ctx()
  /// (planning first, then morsels in index order), adding the streams'
  /// pool stats to the registry. Idempotent per cycle.
  void Finalize();

  Engine* engine_;
  std::unique_ptr<ParallelScanKernel> kernel_;
  ParallelScanOptions options_;
  std::unique_ptr<TaskScheduler> owned_scheduler_;

  std::unique_ptr<MorselSource> source_;
  std::unique_ptr<AccountingStack> planning_;
  std::vector<std::unique_ptr<AccountingStack>> stacks_;
  std::vector<AccessPathStats> morsel_stats_;
  AccessPathStats prolog_stats_;
  std::shared_ptr<TaskScheduler::TaskGroup> group_;
  bool finalized_ = true;

  /// Clearing a drained slot under this latch runs PooledBatch destructors,
  /// which release into the BatchPool (and possibly the broker) — hence its
  /// rank above both.
  latch::Latch mu_{latch::LatchRank::kParallelScan, "ParallelScan::mu_"};
  std::condition_variable_any cv_;        ///< Producers -> consumer.
  std::condition_variable_any space_cv_;  ///< Consumer -> waiting producers.
  std::vector<Slot> slots_ GUARDED_BY(mu_);
  size_t emit_slot_ GUARDED_BY(mu_) = 0;
  size_t queued_ GUARDED_BY(mu_) = 0;  ///< Batches in slots, not yet taken.
  size_t window_ GUARDED_BY(mu_) = 0;  ///< Backpressure bound; 0: none.
  // Consumer-thread-only staging of the batch being drained; never touched by
  // workers, so deliberately outside the latch.
  PooledBatch pending_;
  size_t pending_pos_ = 0;
};

/// Kernel factories. Each returns null for configurations whose semantics
/// require a serial scan (order preservation, non-eager or shared Smooth
/// Scan); callers fall back to the serial operator. Like the serial
/// constructors, the index-driven factories abort on a predicate that is not
/// on the index key.
std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    SortScanOptions scan_options, ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options);
std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_PARALLEL_SCAN_H_
