// Figure 1: non-robust performance due to optimization errors. The paper's
// experiment tuned DBMS-X with its advisor and observed that several TPC-H
// queries *regressed* — the advisor's indexes seduced the optimizer into
// index scans whose selectivity it had underestimated (Q12 by 400x).
//
// Reproduction: for each of the paper's 19 plotted queries we model the
// LINEITEM predicate by its documented/typical selectivity and the
// optimizer's cardinality misestimation factor (stale statistics). The
// "original" system has no index (always a full scan); the "tuned" system
// lets the textbook optimizer choose using the corrupted statistics. We run
// both plans over the TPC-H LINEITEM table and print normalized execution
// time (tuned / original), the paper's Fig. 1 metric. The per-query
// (selectivity, misestimation) pairs are synthesized from the paper's
// narrative — Q12 and Q19 suffer severe underestimation; Q3/Q18/Q21 moderate
// — since DBMS-X and its advisor are closed-source.

#include <cstdio>

#include "bench_util.h"
#include "plan/access_path_chooser.h"
#include "tpch/tpch_gen.h"

using namespace smoothscan;
using namespace smoothscan::tpch;
using bench::MeasureCold;

namespace {

struct QueryScenario {
  const char* name;
  double selectivity;    // True LINEITEM predicate selectivity.
  double misestimation;  // Optimizer believes sel * this.
};

// Selectivities follow the TPC-H predicates over LINEITEM (or the dominant
// probed table); misestimation models the advisor-induced errors the paper
// reports (Section VI-B): severe on Q12/Q19, moderate on Q3/Q18/Q21.
// The degraded portion of the moderate queries (Q3/Q18/Q21) is the part of
// the plan that switched to index look-ups after join reordering; we model it
// as a medium-selectivity probe under strong underestimation, yielding the
// paper's single-digit regression factors.
constexpr QueryScenario kScenarios[] = {
    {"Q1", 0.98, 1.0},    {"Q2", 0.001, 1.0},   {"Q3", 0.08, 0.01},
    {"Q4", 0.65, 1.0},    {"Q5", 0.30, 1.0},    {"Q6", 0.02, 1.0},
    {"Q7", 0.30, 1.0},    {"Q8", 0.10, 1.0},    {"Q9", 0.05, 1.0},
    {"Q10", 0.25, 1.0},   {"Q11", 0.01, 1.0},   {"Q12", 0.60, 0.001},
    {"Q13", 0.90, 1.0},   {"Q14", 0.01, 1.0},   {"Q16", 0.002, 1.0},
    {"Q18", 0.045, 0.02}, {"Q19", 0.35, 0.002}, {"Q21", 0.06, 0.015},
    {"Q22", 0.005, 1.0},
};

}  // namespace

int main() {
  EngineOptions options;
  options.buffer_pool_pages = 512;
  Engine engine(options);
  TpchSpec spec;
  spec.scale_factor = 0.01;
  TpchDb db(&engine, spec);
  const HeapFile& lineitem = db.lineitem();
  const BPlusTree& index = db.lineitem_shipdate_index();

  TableStats honest = TableStats::Compute(lineitem, lineitem::kShipDate);
  CostModelParams params;
  params.num_tuples = lineitem.num_tuples();
  params.tuple_size = static_cast<uint64_t>(
      8192 / (lineitem.num_tuples() / lineitem.num_pages()));
  const CostModel model(params);

  // Map a target selectivity to a shipdate range via the honest histogram.
  const int64_t lo = DateDays(1992, 1, 1);
  auto range_hi_for = [&](double sel) {
    int64_t hi = lo;
    const int64_t max_hi = DateDays(1999, 6, 1);
    while (hi < max_hi && honest.EstimateSelectivity(lo, hi) < sel) ++hi;
    return hi;
  };

  std::printf("# Fig 1: normalized execution time, tuned vs original "
              "(log scale in the paper)\n");
  std::printf("%-6s %8s %10s %-12s %14s %14s %12s\n", "query", "sel%",
              "est.err", "tuned plan", "t_original", "t_tuned", "normalized");

  for (const QueryScenario& s : kScenarios) {
    const int64_t hi = range_hi_for(s.selectivity);
    ScanPredicate pred;
    pred.column = lineitem::kShipDate;
    pred.lo = lo;
    pred.hi = hi;

    // Original: no indexes exist — full scan.
    FullScan original(&lineitem, pred);
    const double t_original = MeasureCold(&engine, [&]() -> uint64_t {
                                SMOOTHSCAN_CHECK(original.Open().ok());
                                uint64_t n = 0;
                                TupleBatch batch;
                                while (original.NextBatch(&batch)) {
                                  n += batch.size();
                                }
                                return n;
                              }).total_time;

    // Tuned: the optimizer chooses under corrupted statistics. For the
    // regressing queries the paper describes the mechanism precisely: "the
    // presence of indices favors a nested loop join when the number of
    // qualifying tuples is significantly underestimated", i.e. the tuned plan
    // performs per-tuple index look-ups (a plain index scan pattern), not a
    // blocking bitmap scan — the index feeds a pipelined join. We therefore
    // price full scan vs. *index* scan with the corrupted estimate, exactly
    // the choice DBMS-X faced.
    TableStats corrupted = honest;
    corrupted.CorruptScale(s.misestimation);
    const uint64_t est_card =
        corrupted.EstimateCardinality(pred.lo, pred.hi);
    const PathKind tuned_kind = model.IndexScanCost(est_card) <
                                        model.FullScanCost()
                                    ? PathKind::kIndexScan
                                    : PathKind::kFullScan;
    PlanChoice choice;
    choice.kind = tuned_kind;
    choice.estimated_cardinality = est_card;
    std::unique_ptr<AccessPath> tuned = MakePath(
        choice.kind, &index, pred, false, choice.estimated_cardinality);
    const double t_tuned = MeasureCold(&engine, [&]() -> uint64_t {
                             SMOOTHSCAN_CHECK(tuned->Open().ok());
                             uint64_t n = 0;
                             TupleBatch batch;
                             while (tuned->NextBatch(&batch)) {
                               n += batch.size();
                             }
                             return n;
                           }).total_time;

    std::printf("%-6s %8.2f %10.3f %-12s %14.1f %14.1f %12.2f\n", s.name,
                s.selectivity * 100.0, s.misestimation,
                PathKindToString(choice.kind), t_original, t_tuned,
                t_tuned / t_original);
  }
  return 0;
}
