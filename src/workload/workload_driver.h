// WorkloadDriver: the paper's robustness experiment lifted from one query to
// a *stream*. A closed loop of N concurrent clients replays phases of
// queries over the micro-benchmark table through a shared QueryEngine; each
// phase shifts the selectivity range and corrupts the optimizer statistics by
// a phase-specific factor (the "lying estimates" that make a cost-based
// chooser pick the wrong path). Policies compare the statistics-trusting
// optimizer against the statistics-oblivious Smooth Scan (and fixed-path
// baselines) at workload level: queries/second and latency percentiles
// instead of single-query cost.
//
// Determinism: every client draws its selectivities from an Rng forked off
// (seed, client id), so the *set* of queries a configuration runs is exactly
// repeatable; only queueing and wall-clock vary with scheduling.

#ifndef SMOOTHSCAN_WORKLOAD_WORKLOAD_DRIVER_H_
#define SMOOTHSCAN_WORKLOAD_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "workload/micro_bench.h"

namespace smoothscan {

/// One phase of the stream each client replays, in order.
struct StreamPhase {
  /// Per-query selectivity is drawn uniform in [selectivity_lo, _hi] —
  /// shifting the window across phases models the drifting workloads the
  /// optimizer's frozen statistics cannot follow.
  double selectivity_lo = 0.01;
  double selectivity_hi = 0.1;
  /// Statistics corruption for this phase (TableStats::CorruptScale): 0.01
  /// means the optimizer believes 100x fewer tuples qualify.
  double estimate_error = 1.0;
  /// Queries each client submits in this phase.
  uint32_t queries = 4;
  QueryLane lane = QueryLane::kBatch;

  // --- Write mix (requires WorkloadOptions::writer; client 0 becomes the
  // writer client and interleaves these with its reads). Mutations drift the
  // *data* under the chooser's frozen statistics — the complement of
  // estimate_error, which only drifts the *queries*.
  /// Write queries client 0 submits this phase (each one admission-
  /// controlled batch of `write_ops` mutations).
  uint32_t write_queries = 0;
  /// Mutations per write query.
  uint32_t write_ops = 32;
  /// Inserted tuples draw their indexed key uniform from this selectivity
  /// window of the value domain (e.g. [0, 0.1] piles new tuples into the
  /// low-key range every low-selectivity predicate hits).
  double insert_sel_lo = 0.0;
  double insert_sel_hi = 1.0;
  /// Relative op-kind weights within a write query.
  double insert_weight = 1.0;
  double update_weight = 1.0;
  double delete_weight = 1.0;
};

/// How the driver picks each query's access path.
enum class DriverPolicy {
  kOptimizer,   ///< Cost-based chooser over the phase's corrupted stats.
  kSmoothScan,  ///< Always Smooth Scan (Eager + Elastic), stats-oblivious.
  kFullScan,    ///< Always Full Scan (the robust-but-pessimal baseline).
  kIndexScan,   ///< Always Index Scan (the fragile baseline).
  kSharedScan,  ///< Always the cooperative shared scan (the engine needs a
                ///< ScanSharingCoordinator; falls back to Full Scan without).
};

const char* DriverPolicyToString(DriverPolicy policy);

struct WorkloadOptions {
  uint32_t clients = 4;
  /// Intra-query DOP handed to QuerySpec (0 = serial operators).
  uint32_t dop = 0;
  DriverPolicy policy = DriverPolicy::kOptimizer;
  uint64_t seed = 7;
  std::vector<StreamPhase> phases;

  /// Write path (all three null/false = the read-only driver of PR 3/4):
  /// the table's writer, enabling phases with write_queries > 0. The
  /// QueryEngine must be configured with the matching TableVersionRegistry.
  TableWriter* writer = nullptr;
  /// When set with `phase_barrier`, the driver pins the phase snapshot: it
  /// holds a table ReadLease across each phase and rotates it at the phase
  /// barrier, so every era publishes exactly at a phase boundary. Reads in
  /// phase k therefore all see the snapshot left by phase k-1's writes —
  /// which makes every per-query simulated read cost a pure function of
  /// (spec, phase), bit-identical across admission levels (bench_write_mix's
  /// acceptance property).
  TableVersionRegistry* versions = nullptr;
  /// Synchronize all clients at phase boundaries.
  bool phase_barrier = false;

  // --- Observability (pure bookkeeping; per-query simulated cost is
  // bit-identical with or without any of it). ---
  /// Unified metrics registry. When set, Run() stores the final registry
  /// snapshot in WorkloadReport::metrics, with the broker's gauges written
  /// right before it (SetBrokerGauges).
  obs::MetricsRegistry* metrics = nullptr;
  /// Memory broker whose end state fills the report's mem_class_bytes /
  /// peak / pressure fields and, with `metrics`, the broker.* gauges.
  const MemoryBroker* broker = nullptr;

  /// The paper's three-phase drift with a lying optimizer: trickle-selective
  /// queries the stats get right, then a mid-selectivity phase the stats
  /// underestimate 100x (index-scan trap), then a high-selectivity phase
  /// underestimated 1000x.
  static std::vector<StreamPhase> DriftingPhases(uint32_t queries_per_phase);

  /// A same-table hot spot: every client hammers the one table with
  /// scan-bound (30–80% selectivity) queries at once — the workload where N
  /// independent passes waste N-1 of them and a cooperative shared scan
  /// collapses them toward one (bench_shared_scan sweeps it).
  static std::vector<StreamPhase> HotSpotPhases(uint32_t queries_per_client);

  /// Three mixed read/write phases with *data* drift: client 0 piles inserts
  /// into the low-key window every predicate hits (and deletes/updates
  /// arbitrary rows) while all clients read — so actual selectivities creep
  /// away from the chooser's statistics, which were computed once, before
  /// any mutation (the stale-stats scenario of Leis et al. replayed under
  /// writes).
  static std::vector<StreamPhase> MixedWritePhases(
      uint32_t queries_per_phase, uint32_t write_queries_per_phase);
};

/// Workload-level results, aggregated over every completed query.
struct WorkloadReport {
  uint64_t queries = 0;       ///< Read queries completed.
  uint64_t write_queries = 0; ///< Write queries completed.
  uint64_t write_ops = 0;     ///< Mutations applied (ops in write queries).
  uint64_t tuples = 0;
  double wall_ms = 0.0;  ///< Whole-run wall clock (all clients).
  double qps = 0.0;      ///< queries / wall seconds.
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double mean_queue_ms = 0.0;
  /// Summed per-query simulated cost — schedule-independent, so two runs of
  /// one configuration agree bit-for-bit regardless of concurrency. Two
  /// exceptions when a ScanSharingCoordinator is configured: shared-scan
  /// queries charge ~no I/O (the pass is paid on the engine's communal
  /// stream), and shared-SmoothScan savings depend on which pages peers had
  /// probed first — by design, sharing trades per-query cost isolation for
  /// aggregate I/O.
  double total_sim_time = 0.0;
  /// Summed per-query quota breaches (see QueryMetrics::mem_quota_breaches).
  /// Breaches shed batch storage, they never fail a query; a nonzero count
  /// under a quota is the memory governor visibly working.
  uint64_t mem_quota_breaches = 0;
  /// Largest single-query execution-memory peak observed.
  uint64_t mem_peak_bytes = 0;
  /// Queries that ran each PathKind (indexed by its enum value).
  uint64_t path_counts[kNumPathKinds] = {};
  /// Every query's metrics (reads and writes), concatenated client by
  /// client in each client's submission order — a deterministic order, so
  /// two runs of one configuration align entry for entry.
  std::vector<QueryMetrics> per_query;
  /// Broker state at run end, indexed by MemoryClass (zeros without
  /// WorkloadOptions::broker).
  uint64_t mem_class_bytes[kNumMemoryClasses] = {};
  uint64_t mem_peak_total_bytes = 0;
  uint64_t mem_pressure_epochs = 0;
  /// Final registry snapshot — every counter/gauge/histogram at run end,
  /// safe to keep after engine and registry are gone (empty without
  /// WorkloadOptions::metrics).
  obs::MetricsSnapshot metrics;
};

class WorkloadDriver {
 public:
  /// The driver borrows all three; they must outlive it. The QueryEngine's
  /// admission cap is the experiment's multi-programming level.
  WorkloadDriver(Engine* engine, const MicroBenchDb* db, QueryEngine* qe);

  /// Runs the closed loop to completion and aggregates the report.
  WorkloadReport Run(const WorkloadOptions& options);

 private:
  /// Mutable per-writer-client generation state (client 0 only).
  struct WriteGenState {
    int64_t next_c1 = 0;     ///< Unique primary-key counter for inserts.
    PageId target_pages = 0; ///< Update/delete Tids draw pages below this.
    uint32_t slot_range = 0; ///< ... and slots below this (misses skip).
  };

  QuerySpec SpecFor(const StreamPhase& phase, double selectivity,
                    const TableStats* phase_stats, const CostModel* model,
                    const WorkloadOptions& options) const;

  /// One write query's op batch, drawn deterministically from `rng`.
  std::vector<WriteOp> GenWriteOps(const StreamPhase& phase, Rng* rng,
                                   WriteGenState* state) const;

  Engine* engine_;
  const MicroBenchDb* db_;
  QueryEngine* qe_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_WORKLOAD_WORKLOAD_DRIVER_H_
