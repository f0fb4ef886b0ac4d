// AccessPathChooser: a textbook cost-based access-path optimizer — the
// component whose statistics-sensitivity Smooth Scan removes. Given (possibly
// corrupted) TableStats it estimates the predicate selectivity, prices Full
// Scan / Index Scan / Sort Scan with the Section-V cost model and picks the
// cheapest. MakePath materializes the chosen operator.

#ifndef SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_
#define SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_

#include <memory>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/parallel_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "cost/cost_model.h"
#include "plan/table_stats.h"

namespace smoothscan {

enum class PathKind {
  kFullScan,
  kIndexScan,
  kSortScan,
  kSwitchScan,
  kSmoothScan,
  /// Cooperative circular scan shared with concurrent same-table queries
  /// (src/sharing/). Materialized by the QueryEngine via its
  /// ScanSharingCoordinator — MakePath cannot build it alone.
  kSharedScan,
  /// Run-encoded scan over the table's compressed sibling extent
  /// (src/compress/). Materialized by the QueryEngine via its
  /// CompressedExtentMap — MakePath falls back to FullScan without one (or
  /// when the extent was invalidated by a publish after planning).
  kCompressedScan,
};

/// Number of PathKind values (sizing per-path counters). Derived from the
/// last enumerator so adding a kind cannot leave counters undersized.
inline constexpr int kNumPathKinds =
    static_cast<int>(PathKind::kCompressedScan) + 1;

const char* PathKindToString(PathKind kind);

/// What the chooser needs to know about a table's published compressed
/// extent (filled from CompressedExtentMap::Lookup by the caller; the plan
/// layer itself never touches src/compress/).
struct CompressedPathInfo {
  /// Compressed sibling pages — the measured compression ratio is
  /// heap_pages / pages, baked in by construction.
  uint64_t pages = 0;
  uint64_t tuples = 0;
  /// Tuples per key run (run density); 1.0 = incompressible key.
  double avg_run_length = 1.0;
};

/// Chooser knobs beyond the predicate itself.
struct ChooserOptions {
  /// The consumer requires index-key order.
  bool need_order = false;
  /// Degree of parallelism available to the plan. Simulated cost is
  /// DOP-invariant by design (see parallel_scan.h); the knob only changes the
  /// *wall-clock* estimate, so with dop > 1 the chooser ranks paths by
  /// estimated_wall_cost instead.
  uint32_t dop = 1;
  /// A ScanSharingCoordinator is available to the executing engine. When the
  /// ranking favors the full scan anyway (the scan-bound regime), no
  /// interesting order is required and dop == 1 (the shared consumer drains
  /// serially), the chooser upgrades the choice to kSharedScan: a shared lap
  /// costs at most a solo pass and attaching to an in-flight scan costs a
  /// fraction of one.
  bool sharing_available = false;
  /// The table's current compressed extent, when one is published (null:
  /// no compressed tier, or invalidated — the path is simply not offered,
  /// which is the graceful-staleness fallback). Borrowed for the call.
  const CompressedPathInfo* compressed = nullptr;
  /// Calibrated per-path CPU constants. Null (default) ranks on I/O alone,
  /// exactly as before; non-null adds each candidate's CPU estimate so paths
  /// that trade CPU for I/O (the compressed tier) are priced fairly.
  const CalibratedCpuModel* cpu = nullptr;
};

/// The optimizer's verdict for one selection.
struct PlanChoice {
  PathKind kind = PathKind::kFullScan;
  double estimated_selectivity = 0.0;
  uint64_t estimated_cardinality = 0;
  /// Simulated-time estimate (identical at every DOP).
  double estimated_cost = 0.0;
  /// Wall-clock estimate under `dop` workers (Amdahl over the path's serial
  /// prolog fraction). Equals estimated_cost at dop = 1.
  double estimated_wall_cost = 0.0;
  uint32_t dop = 1;
};

class AccessPathChooser {
 public:
  /// `need_order`: the consumer requires index-key order. A full scan (and,
  /// in the blocking sense, a sort scan) then pays a posterior sort, priced
  /// here as a CPU surcharge proportional to n log n.
  static PlanChoice Choose(const TableStats& stats, const CostModel& model,
                           int64_t lo, int64_t hi, bool need_order);

  /// Degree-of-parallelism-aware variant (see ChooserOptions::dop).
  static PlanChoice Choose(const TableStats& stats, const CostModel& model,
                           int64_t lo, int64_t hi,
                           const ChooserOptions& options);
};

/// Materializes an access path of `kind` over `index` (its heap) with
/// `predicate`. `estimate` parameterizes Switch Scan's threshold; Smooth Scan
/// runs the paper's preferred Eager + Elastic configuration. This is the one
/// place that knows how a read gets its order: with `need_order`, Index Scan
/// and Smooth Scan (through its Result Cache) keep the index order natively,
/// and every other kind (Full, Sort and Switch, and Shared or Compressed as
/// their FullScan fallback) comes wrapped in a SortOp on the predicate
/// column, the posterior sort the chooser prices.
std::unique_ptr<AccessPath> MakePath(PathKind kind, const BPlusTree* index,
                                     const ScanPredicate& predicate,
                                     bool need_order, uint64_t estimate);

/// Materializes the morsel-driven parallel variant of `kind`, or null when
/// the combination has no parallel form (order-preserving consumers; the
/// non-eager Smooth Scan triggers keep their serial operator). `parallel.dop`
/// may be 1 — the same morsel machinery on one worker, same simulated cost.
std::unique_ptr<ParallelScan> MakeParallelPath(
    PathKind kind, const BPlusTree* index, const ScanPredicate& predicate,
    bool need_order, uint64_t estimate, const ParallelScanOptions& parallel);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_PLAN_ACCESS_PATH_CHOOSER_H_
