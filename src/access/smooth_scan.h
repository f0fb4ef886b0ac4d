// SmoothScan: the paper's statistics-oblivious morphable access path
// (Sections III–IV). Starts from index-driven access and *continuously*
// morphs toward a full table scan as observed selectivity grows — no binary
// switch, no reliance on optimizer statistics.
//
// Modes (Section III-A):
//   Mode 0  Index Scan        — only under non-eager triggers, before the
//                               trigger fires: plain tuple look-ups.
//   Mode 1  Entire Page Probe — every fetched heap page is probed fully,
//                               trading CPU for the elimination of repeated
//                               page accesses (Page ID Cache).
//   Mode 2+ Flattening Access — each index-driven fetch reads a *morphing
//                               region* of adjacent pages with one I/O
//                               request; the region size expands (and, under
//                               Elastic, shrinks) in powers of two.
//
// Policies (Section III-B): Greedy, Selectivity-Increase, Elastic. Region
// growth compares the local selectivity of the last region (Eq. 1) against
// the global selectivity of all pages seen (Eq. 2). We grow on
// `local >= global`: with the paper's strict `>` a uniformly selective table
// would keep local == global forever and freeze the operator in Mode 1,
// contradicting the convergence toward a full scan shown in Figs. 5–7.
//
// Triggers (Section III-C): Eager (default — morph from the first tuple),
// Optimizer-driven (morph once the estimate is violated) and SLA-driven
// (morph at the trigger cardinality derived from the cost model; compute it
// with CostModel::SlaTriggerCardinality and pass it in).

#ifndef SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_
#define SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "access/access_path.h"
#include "access/page_id_cache.h"
#include "access/result_cache.h"
#include "index/bplus_tree.h"
#include "mem/batch_pool.h"

namespace smoothscan {

/// Morphing-region growth policy (Section III-B).
enum class MorphPolicy {
  kGreedy,               ///< Double after every index-driven probe.
  kSelectivityIncrease,  ///< Double when local sel >= global sel; never shrink.
  kElastic,              ///< Two-way: double on denser, halve on sparser.
};

/// When morphing begins (Section III-C).
enum class MorphTrigger {
  kEager,            ///< From the first tuple (the paper's default).
  kOptimizerDriven,  ///< After the optimizer's cardinality estimate is hit.
  kSlaDriven,        ///< At the cost-model-derived SLA trigger cardinality.
};

const char* MorphPolicyToString(MorphPolicy policy);
const char* MorphTriggerToString(MorphTrigger trigger);

/// Cross-query Smooth Scan sharing (the shared-SmoothScan mode of the scan
/// sharing subsystem, handed out by ScanSharingCoordinator::SmoothSharingFor):
/// every attached scan over the table feeds one common concurrent Page ID
/// Cache recording pages *some* query has already fully probed. A scan still
/// probes every page its own lap needs — results stay solo-identical — but a
/// page that a peer marked AND that is still resident in the shared pool is
/// taken without an I/O charge: the peer already paid the fetch, and the
/// residency check keeps the free ride honest under eviction. The aggregate
/// I/O of N same-table Smooth Scans thus drops toward one pass while each
/// query's private Page ID Cache keeps its result dedup exact.
struct SharedSmoothGroup {
  SharedSmoothGroup(size_t num_pages, BufferPool* shared_pool, FileId file_id)
      : cache(num_pages), pool(shared_pool), file(file_id) {}

  PageIdCache cache;  ///< Pages fully probed by any attached scan.
  BufferPool* pool;   ///< The shared residency pool (the engine's).
  FileId file;
};

/// One region-growth policy step (Section III-B). Compares the finished
/// region's local selectivity (Eq. 1) against the global selectivity of the
/// pages seen *before* it (Eq. 2) and returns the next region size, counting
/// the expansion/shrink into the provided counters.
uint32_t MorphRegionStep(MorphPolicy policy, uint32_t region_pages,
                         uint32_t max_region_pages, uint64_t pages_seen_before,
                         uint64_t pages_with_results_before,
                         uint64_t region_pages_seen,
                         uint64_t region_result_pages, uint64_t* expansions,
                         uint64_t* shrinks);

struct SmoothScanOptions {
  MorphPolicy policy = MorphPolicy::kElastic;
  MorphTrigger trigger = MorphTrigger::kEager;
  /// Policy adopted once a non-eager trigger fires. The paper continues with
  /// Selectivity-Increase after an optimizer trigger and with Greedy after an
  /// SLA trigger (Section VI-D).
  MorphPolicy post_trigger_policy = MorphPolicy::kSelectivityIncrease;
  /// kOptimizerDriven: the estimate whose violation triggers morphing.
  uint64_t optimizer_estimate = 0;
  /// kSlaDriven: trigger cardinality (see CostModel::SlaTriggerCardinality).
  uint64_t sla_trigger_cardinality = 0;
  /// Cap on the morphing region (the paper found 2 K pages = 16 MB optimal).
  uint32_t max_region_pages = 2048;
  /// When false the operator never leaves Mode 1 (Fig. 6's
  /// "Entire Page Probe" curve).
  bool enable_flattening = true;
  /// Maintain the index's interesting order via the Result Cache (needed for
  /// ORDER BY consumers).
  bool preserve_order = false;
  /// Resident-tuple budget of the Result Cache before its furthest key-range
  /// partitions spill to a simulated overflow file (Section IV-A).
  uint64_t result_cache_budget = UINT64_MAX;
  /// Memory broker the Result Cache registers with (null = ungoverned):
  /// under global pressure the cache spills early instead of growing.
  MemoryBroker* broker = nullptr;
  /// Shared-SmoothScan mode: attach this scan to the table's common Page ID
  /// Cache (see SharedSmoothGroup). Null = solo behaviour, bit-identical
  /// accounting to a cold run.
  std::shared_ptr<SharedSmoothGroup> shared_group;
};

/// Operator-specific counters, exposed for the paper's Figs. 6–9 analyses.
struct SmoothScanStats {
  uint64_t card_mode0 = 0;  ///< Tuples produced pre-trigger (plain index).
  uint64_t card_mode1 = 0;  ///< Tuples from single-page probes.
  uint64_t card_mode2 = 0;  ///< Tuples from flattened regions.
  uint64_t probes = 0;      ///< Index-driven region fetches.
  uint64_t expansions = 0;
  uint64_t shrinks = 0;
  uint64_t pages_seen = 0;          ///< Distinct heap pages probed.
  uint64_t pages_with_results = 0;  ///< ... of which contained a result.
  /// Morphing accuracy inputs (Fig. 9b): pages fetched *beyond* the
  /// index-targeted page, and how many of them contained results.
  uint64_t morph_checked_pages = 0;
  uint64_t morph_result_pages = 0;
  /// Result Cache counters (Fig. 9a).
  uint64_t rc_probes = 0;
  uint64_t rc_hits = 0;
  uint64_t rc_inserts = 0;
  uint64_t rc_max_size = 0;
  /// Result Cache spill counters, latched at Close (the cache itself is an
  /// Open-to-Close structure; these survive it for benches and tests).
  uint64_t rc_spills = 0;
  uint64_t rc_pressure_spills = 0;
  uint64_t rc_restores = 0;
  uint64_t rc_spilled_tuples = 0;
  uint64_t rc_restored_tuples = 0;
  /// Shared-SmoothScan mode: pages taken for free because a peer query had
  /// already probed them and they were still resident in the shared pool.
  uint64_t shared_free_pages = 0;
  /// Index entries skipped because their target page was already harvested
  /// (Page ID Cache bit set). Added to the registry's smooth.page_cache_hits
  /// at Close, like the expansion, shrink and trigger counts.
  uint64_t page_cache_hits = 0;
  bool triggered = false;         ///< Non-eager trigger fired.
  uint64_t trigger_cardinality = 0;

  friend bool operator==(const SmoothScanStats&,
                         const SmoothScanStats&) = default;

  double MorphingAccuracy() const {
    return morph_checked_pages == 0
               ? 1.0
               : static_cast<double>(morph_result_pages) /
                     static_cast<double>(morph_checked_pages);
  }
  double ResultCacheHitRate() const {
    return rc_probes == 0
               ? 0.0
               : static_cast<double>(rc_hits) / static_cast<double>(rc_probes);
  }
};

/// One morsel of a parallel Smooth Scan (the ParallelSmoothScan kernel's
/// input): the index entries the kernel's leaf walk bucketed to the morsel,
/// the end of its page range (regions are clipped there), the Page ID Cache
/// every morsel of the scan shares, and the morph state the morsel starts
/// from. The kernel's dry run of the policy over the preceding morsels
/// produces that seed: the region size and the Eq. 2 inputs (pages seen,
/// pages with results) it reached. The policy compares against seed + own
/// counts; SmoothScanStats still count only the morsel's own work. The
/// defaults are the serial operator's start, which is morsel 0's seed.
struct SmoothScanMorsel {
  const std::vector<Tid>* targets = nullptr;
  PageId page_end = 0;
  PageIdCache* page_cache = nullptr;
  uint32_t region_pages = 1;
  uint64_t pages_seen = 0;
  uint64_t pages_with_results = 0;
};

class SmoothScan : public AccessPath {
 public:
  SmoothScan(const BPlusTree* index, ScanPredicate predicate,
             SmoothScanOptions options = SmoothScanOptions());
  /// Internal: the scan over one parallel morsel (Eager, unordered and
  /// unshared only). It follows `morsel.targets` instead of walking the
  /// index, so the leaf walk is charged wherever the caller ran it.
  SmoothScan(const BPlusTree* index, ScanPredicate predicate,
             SmoothScanOptions options, SmoothScanMorsel morsel);

  const char* name() const override { return "SmoothScan"; }

  const SmoothScanOptions& options() const { return options_; }
  const SmoothScanStats& smooth_stats() const { return sstats_; }
  uint32_t current_region_pages() const { return region_pages_; }

 protected:
  Status OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;
  ExecContext DefaultContext() const override;

 private:
  /// The next index entry to follow (from the iterator, or the morsel's
  /// target list); false once the qualifying range is exhausted.
  bool PeekEntry(Tid* tid) const;
  void AdvanceEntry();
  void NextUnordered(TupleBatch* out);
  void NextOrdered(TupleBatch* out);
  /// Pre-trigger plain index-scan step; appends at most one tuple to `out`.
  void Mode0Step(TupleBatch* out);
  /// Fires the trigger when the pre-trigger cardinality bound is exceeded.
  void MaybeTrigger();
  /// Fetches the morphing region anchored at `target` (one I/O request) and
  /// harvests all qualifying tuples from unprocessed pages — decoded into
  /// `out` while it has room, then into spill batches — and updates the
  /// policy state. `out` may be null (ordered mode inserts into the Result
  /// Cache instead).
  void FetchRegionAndHarvest(PageId target, TupleBatch* out);
  /// The spill batch with room for the next harvested row, borrowed from
  /// ctx().batch_pool.
  TupleBatch* SpillBatch();
  /// Hands the oldest spilled rows to `out` (TupleBatch::TakeFrom: a whole
  /// batch sends `out`'s old storage back to the pool warm).
  void TakeSpilled(TupleBatch* out);
  void UpdatePolicy(uint64_t region_pages, uint64_t region_result_pages);

  /// Observed global selectivity so far (Eq. 2), in parts per million — the
  /// integer payload the morph trace instants carry.
  int64_t GlobalSelectivityPpm() const;
  /// Emits the pending Page-ID-Cache skip run (if any) as one coalesced
  /// trace instant. Per-hit instants would flood the ring and evict the
  /// grow/shrink timeline; the counter still counts every hit.
  void FlushCacheSkipRun();

  const BPlusTree* index_;
  ScanPredicate predicate_;
  SmoothScanOptions options_;
  SmoothScanMorsel morsel_;  ///< targets == null: a whole-index scan.
  SmoothScanStats sstats_;

  MorphPolicy active_policy_;
  bool morphing_ = false;  ///< False while Mode 0 (pre-trigger) is running.
  uint64_t pretrigger_bound_ = 0;

  std::optional<BPlusTree::Iterator> it_;
  size_t next_target_ = 0;  ///< Cursor into morsel_.targets.
  PageId page_end_ = 0;     ///< Regions never reach this page.
  std::unique_ptr<PageIdCache> owned_page_cache_;
  PageIdCache* page_cache_ = nullptr;  ///< Owned, or the morsels' shared one.
  /// Non-eager triggers: where Mode 0 stopped when the trigger fired (the
  /// default before it). Mode 0 produced exactly the qualifying tuples below
  /// it, so a harvest drops those — the paper's Tuple ID Cache, by index
  /// order.
  IndexPosition mode0_stop_;
  std::unique_ptr<ResultCache> result_cache_;
  /// Rows a region harvested beyond the caller's batch (a morphing region can
  /// hold many batches' worth), decoded in place into pooled batches:
  /// spill_[spill_next_, end) hold rows not yet handed over (spill_pos_ =
  /// rows already taken from spill_[spill_next_]). Each batch returns to its
  /// pool warm once handed over.
  std::vector<PooledBatch> spill_;
  size_t spill_next_ = 0;
  size_t spill_pos_ = 0;
  uint32_t region_pages_ = 1;

  /// The pending coalesced Page-ID-Cache skip run (see FlushCacheSkipRun).
  uint64_t cache_skip_run_ = 0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_ACCESS_SMOOTH_SCAN_H_
