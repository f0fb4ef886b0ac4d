#include "plan/access_path_chooser.h"

#include <algorithm>
#include <cmath>

namespace smoothscan {

const char* PathKindToString(PathKind kind) {
  switch (kind) {
    case PathKind::kFullScan:
      return "FullScan";
    case PathKind::kIndexScan:
      return "IndexScan";
    case PathKind::kSortScan:
      return "SortScan";
    case PathKind::kSwitchScan:
      return "SwitchScan";
    case PathKind::kSmoothScan:
      return "SmoothScan";
    case PathKind::kSharedScan:
      return "SharedScan";
    case PathKind::kCompressedScan:
      return "CompressedScan";
  }
  return "?";
}

PlanChoice AccessPathChooser::Choose(const TableStats& stats,
                                     const CostModel& model, int64_t lo,
                                     int64_t hi, bool need_order) {
  ChooserOptions options;
  options.need_order = need_order;
  return Choose(stats, model, lo, hi, options);
}

PlanChoice AccessPathChooser::Choose(const TableStats& stats,
                                     const CostModel& model, int64_t lo,
                                     int64_t hi,
                                     const ChooserOptions& options) {
  const bool need_order = options.need_order;
  PlanChoice choice;
  choice.estimated_selectivity = stats.EstimateSelectivity(lo, hi);
  choice.estimated_cardinality = stats.EstimateCardinality(lo, hi);
  const uint64_t card = choice.estimated_cardinality;

  // Posterior-sort surcharge for order-destroying paths, in the same units
  // as page I/O (rough CPU-equivalent of n log2 n comparisons).
  const double sort_penalty =
      !need_order || card < 2
          ? 0.0
          : 2e-4 * static_cast<double>(card) *
                std::log2(static_cast<double>(card));

  const double full = model.FullScanCost() + sort_penalty;
  const double index = model.IndexScanCost(card);
  // Sort Scan: leaf traversal + one nearly-sequential pass over the result
  // pages + the TID sort (and the posterior key sort when order is needed).
  const uint64_t result_pages =
      std::min<uint64_t>(card, model.NumPages());
  const double tid_sort =
      card < 2 ? 0.0
               : 2e-4 * static_cast<double>(card) *
                     std::log2(static_cast<double>(card));
  const double sort_scan =
      static_cast<double>(model.LeavesForResults(card)) *
          model.params().seq_cost +
      static_cast<double>(result_pages) * model.params().seq_cost + tid_sort +
      sort_penalty;

  // Wall-clock estimates under `dop` workers: Amdahl over each path's serial
  // prolog fraction. The heap pass of every path parallelizes over morsels;
  // posterior sorts, TID sorts and leaf walks stay on the consumer thread.
  const uint32_t dop = std::max<uint32_t>(1, options.dop);
  const double d = static_cast<double>(dop);
  // Order-preserving consumers have no parallel plan at all (MakeParallelPath
  // returns null), so every wall estimate stays serial under need_order.
  const double full_wall =
      need_order ? full : (full - sort_penalty) / d + sort_penalty;
  // The parallel index kernel has no serial prolog: each key-range morsel
  // seeks and walks its own leaf slice concurrently.
  const double index_wall = need_order ? index : index / d;
  // The sort-scan prolog (leaf walk + TID sort) does run serially.
  const double sort_scan_serial = static_cast<double>(model.LeavesForResults(
                                      card)) * model.params().seq_cost +
                                  tid_sort + sort_penalty;
  const double sort_scan_wall =
      need_order ? sort_scan
                 : (sort_scan - sort_scan_serial) / d + sort_scan_serial;

  // Optional CPU surcharges from the calibrated model: only when a caller
  // passes one — the default ranking stays the paper's I/O-only comparison.
  const CalibratedCpuModel* cpu = options.cpu;
  const double full_cpu =
      cpu != nullptr ? cpu->FullScanCpu(model.params().num_tuples, card) : 0.0;
  const double index_cpu = cpu != nullptr ? cpu->IndexScanCpu(card) : 0.0;

  // Rank by simulated cost at dop = 1 (the paper's setting) and by the wall
  // estimate when parallelism is available.
  struct Candidate {
    PathKind kind;
    double cost;
    double wall;
  };
  Candidate candidates[4] = {
      {PathKind::kFullScan, full + full_cpu,
       full_wall + (need_order ? full_cpu : full_cpu / d)},
      {PathKind::kIndexScan, index + index_cpu,
       index_wall + (need_order ? index_cpu : index_cpu / d)},
      {PathKind::kSortScan, sort_scan + index_cpu,
       sort_scan_wall + (need_order ? index_cpu : index_cpu / d)},
  };
  int num_candidates = 3;
  // The compressed sibling extent, when published: a sequential pass over
  // pages already shrunk by the measured compression ratio. Heap-order
  // output only — an order-requiring consumer falls back to the heap paths.
  if (options.compressed != nullptr && !need_order) {
    const CompressedPathInfo& info = *options.compressed;
    const uint64_t key_checks = static_cast<uint64_t>(
        static_cast<double>(info.tuples) /
        std::max(1.0, info.avg_run_length));
    const double compressed_cpu =
        cpu != nullptr
            ? cpu->CompressedScanCpu(info.pages, key_checks, card)
            : 0.0;
    const double compressed =
        model.CompressedScanCost(info.pages) + compressed_cpu;
    candidates[num_candidates++] =
        {PathKind::kCompressedScan, compressed, compressed / d};
  }
  choice.kind = candidates[0].kind;
  choice.estimated_cost = candidates[0].cost;
  choice.estimated_wall_cost = candidates[0].wall;
  for (int i = 0; i < num_candidates; ++i) {
    const Candidate& c = candidates[i];
    const double rank = dop > 1 ? c.wall : c.cost;
    const double best = dop > 1 ? choice.estimated_wall_cost
                                : choice.estimated_cost;
    if (rank < best) {
      choice.kind = c.kind;
      choice.estimated_cost = c.cost;
      choice.estimated_wall_cost = c.wall;
    }
  }
  // Scan-bound regime with a coordinator on hand: run the winning full pass
  // cooperatively. The estimates stay the solo full scan's — sharing can only
  // cheapen the lap, never widen it. Only at dop == 1: the shared consumer
  // drains its lap serially, so upgrading a plan that was ranked on a
  // parallel full scan's wall estimate would discard the speedup the ranking
  // was based on.
  if (options.sharing_available && !need_order && dop == 1 &&
      choice.kind == PathKind::kFullScan) {
    choice.kind = PathKind::kSharedScan;
  }
  choice.dop = dop;
  return choice;
}

std::unique_ptr<AccessPath> MakePath(PathKind kind, const BPlusTree* index,
                                     const ScanPredicate& predicate,
                                     bool need_order, uint64_t estimate) {
  switch (kind) {
    case PathKind::kFullScan:
    case PathKind::kSharedScan:
    case PathKind::kCompressedScan:
      // The shared and compressed forms need the engine's coordinator or
      // extent map (QueryEngine builds them); without one, the heap full
      // scan is the exact solo-equivalent plan with the identical multiset.
      return std::make_unique<FullScan>(index->heap(), predicate);
    case PathKind::kIndexScan:
      return std::make_unique<IndexScan>(index, predicate);
    case PathKind::kSortScan: {
      SortScanOptions options;
      options.preserve_order = need_order;
      return std::make_unique<SortScan>(index, predicate, options);
    }
    case PathKind::kSwitchScan: {
      SwitchScanOptions options;
      options.estimated_cardinality = estimate;
      return std::make_unique<SwitchScan>(index, predicate, options);
    }
    case PathKind::kSmoothScan: {
      SmoothScanOptions options;
      options.preserve_order = need_order;
      return std::make_unique<SmoothScan>(index, predicate, options);
    }
  }
  return nullptr;
}

std::unique_ptr<ParallelScan> MakeParallelPath(
    PathKind kind, const BPlusTree* index, const ScanPredicate& predicate,
    bool need_order, uint64_t estimate, const ParallelScanOptions& parallel) {
  if (need_order) return nullptr;  // Cross-morsel order needs a merge: serial.
  switch (kind) {
    case PathKind::kFullScan:
      return MakeParallelFullScan(index->heap(), predicate, FullScanOptions(),
                                  parallel);
    case PathKind::kIndexScan:
      return MakeParallelIndexScan(index, predicate, parallel);
    case PathKind::kSortScan:
      return MakeParallelSortScan(index, predicate, SortScanOptions(),
                                  parallel);
    case PathKind::kSwitchScan: {
      SwitchScanOptions options;
      options.estimated_cardinality = estimate;
      return MakeParallelSwitchScan(index, predicate, options, parallel);
    }
    case PathKind::kSmoothScan:
      // The paper's preferred Eager trigger parallelizes; non-eager triggers
      // gate on global cardinality and keep the serial operator.
      return MakeParallelSmoothScan(index, predicate, SmoothScanOptions(),
                                    parallel);
    case PathKind::kSharedScan:
    case PathKind::kCompressedScan:
      // Sharing is inter-query parallelism already (the consumer stays a
      // serial drain), and the compressed kernel needs the extent ref only
      // the QueryEngine holds.
      return nullptr;
  }
  return nullptr;
}

}  // namespace smoothscan
