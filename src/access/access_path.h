// AccessPath: the common base of every access path (Full Scan, Index Scan,
// Sort Scan, Switch Scan, Smooth Scan, and the parallel, shared and
// compressed scans). An access path is an Operator (exec/operator.h): the
// same batch-first NextBatch() pull, so it sits directly under its parent
// operator. What it adds is per-scan bookkeeping only: its stats, its
// execution context and its observability handle. All I/O flows through
// the engine's buffer pool and all CPU work through its meter (charged per
// batch, amortized), so a caller can diff engine counters around a scan to
// obtain the paper's measurements.
//
// Lifecycle contract:
//   * Open() — prepares the scan and RESETS all iteration state and stats.
//     Calling Open() again after Close() (or even mid-stream) restarts the
//     scan from the beginning; the second run produces exactly the same
//     tuples as a fresh instance would (I/O counters differ only through
//     buffer-pool residency).
//   * NextBatch(b) — clears `b`, then appends up to b->capacity() qualifying
//     tuples. Returns true iff at least one tuple was appended; false means
//     end of stream (and stays false until re-Open).
//   * Close() — releases scan state: drops PageGuard pins, index iterators
//     and auxiliary caches. Idempotent, and safe to follow with a re-Open().
//     Page references obtained inside the scan are held as pinned PageGuards
//     (never raw `const Page&`), so they stay valid against concurrent
//     eviction until released here or at end of batch.
//   * stats() — counters of the CURRENT Open() cycle (Open resets them).
//     Read them before re-Open.
//
// Implementations override OpenImpl / NextBatchImpl / CloseImpl; Operator
// owns the end-of-stream latch.

#ifndef SMOOTHSCAN_ACCESS_ACCESS_PATH_H_
#define SMOOTHSCAN_ACCESS_ACCESS_PATH_H_

#include <cstdint>

#include "access/predicate.h"
#include "common/status.h"
#include "common/tuple_batch.h"
#include "exec/operator.h"
#include "obs/obs_context.h"
#include "storage/exec_context.h"
#include "storage/schema.h"

namespace smoothscan {

/// Counters common to all access paths.
struct AccessPathStats {
  uint64_t tuples_produced = 0;
  uint64_t tuples_inspected = 0;
  uint64_t heap_pages_probed = 0;  ///< Heap page fetch events (incl. repeats).

  friend bool operator==(const AccessPathStats&,
                         const AccessPathStats&) = default;
};

/// Work counted by a tuple loop that leaves charging to its caller, so one
/// loop can serve callers that charge per batch (the serial operators) and
/// per morsel (the parallel kernels) without moving a single charge.
struct ScanWork {
  uint64_t pages = 0;      ///< Heap page fetch events.
  uint64_t inspected = 0;
  uint64_t produced = 0;
  /// The paper's Tuple ID Cache inserts/probes, charged as such; the engine
  /// answers them by index position (see bplus_tree.h).
  uint64_t cache_ops = 0;

  /// Charges in the fixed order inspect, cache op, produce. (A zero cache-op
  /// charge would add an exact 0.0; skipping it keeps loops without cache
  /// ops at their two-charge sums for free.)
  void Charge(CpuMeter* cpu) const {
    cpu->ChargeInspect(inspected);
    if (cache_ops != 0) cpu->ChargeCacheOp(cache_ops);
    cpu->ChargeProduce(produced);
  }
  void AddTo(AccessPathStats* stats) const {
    stats->heap_pages_probed += pages;
    stats->tuples_inspected += inspected;
    stats->tuples_produced += produced;
  }
};

/// Abstract pipelined access path (see the lifecycle contract above).
class AccessPath : public Operator {
 public:
  const AccessPathStats& stats() const { return stats_; }

  /// Redirects all page fetches and CPU charges of this scan to `ctx`
  /// (morsel-driven execution charges each morsel's private stream). Must be
  /// set before Open(); `ctx` must outlive the scan's open cycle. Pass null
  /// to restore the default (engine) accounting.
  void SetExecContext(const ExecContext* ctx) { ctx_override_ = ctx; }

  /// Attaches the query's observability handle (metric registry + trace
  /// collector + query id). Same contract as SetExecContext: set before
  /// Open(), must outlive the open cycle, null to detach. Emission is
  /// bookkeeping only — attaching never changes simulated cost.
  void SetObs(const obs::ObsContext* o) { obs_ = o; }

 protected:
  /// Open() starts a cycle with zeroed stats and the active context.
  void ResetCycle() final {
    stats_ = AccessPathStats();
    ctx_ = ctx_override_ != nullptr ? *ctx_override_ : DefaultContext();
  }

  /// The engine-owned context this path charges when none is injected.
  virtual ExecContext DefaultContext() const = 0;

  /// The active execution context (valid from Open() on). Stable address per
  /// path instance, so index iterators may hold &ctx().
  const ExecContext& ctx() const { return ctx_; }

  /// The attached observability handle, or null (most call sites pass this
  /// straight to obs:: helpers, which are null-safe).
  const obs::ObsContext* obs() const { return obs_; }

  AccessPathStats stats_;

 private:
  const ExecContext* ctx_override_ = nullptr;
  const obs::ObsContext* obs_ = nullptr;
  ExecContext ctx_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_ACCESS_PATH_H_
