// Cost model tests: Eqs. (3)-(23) consistency, crossover positions, the SLA
// trigger computation, the competitive-ratio values of Section V-A, and
// agreement between the model and the simulated execution.

#include <gtest/gtest.h>

#include <cmath>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "compress/compressed_scan.h"
#include "cost/cost_model.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

CostModelParams PaperScaleParams() {
  // The paper's micro-benchmark: 400 M tuples of ~64 B in 8 KB pages
  // (3 M pages), HDD costs.
  CostModelParams p;
  p.tuple_size = 64;
  p.num_tuples = 400000000;
  p.page_size = 8192;
  p.key_size = 8;
  p.rand_cost = 10.0;
  p.seq_cost = 1.0;
  return p;
}

TEST(CostModelTest, DerivedValuesEqs3to7) {
  const CostModel m(PaperScaleParams());
  EXPECT_EQ(m.TuplesPerPage(), 128u);                  // Eq. (3).
  EXPECT_EQ(m.NumPages(), 3125000u);                   // Eq. (4).
  EXPECT_EQ(m.Fanout(), 853u);                         // Eq. (5).
  EXPECT_EQ(m.NumLeaves(), (400000000u + 852) / 853);  // Eq. (6).
  // Eq. (7): ceil(log_853(469 K leaves)) + 1 = 2 + 1.
  EXPECT_EQ(m.Height(), 3u);
}

TEST(CostModelTest, CardinalityEq8) {
  const CostModel m(PaperScaleParams());
  EXPECT_EQ(m.Cardinality(0.0), 0u);
  EXPECT_EQ(m.Cardinality(0.01), 4000000u);
  EXPECT_EQ(m.Cardinality(1.0), 400000000u);
}

TEST(CostModelTest, FullScanCostEq10) {
  const CostModel m(PaperScaleParams());
  EXPECT_DOUBLE_EQ(m.FullScanCost(), 3125000.0);
  // Independent of selectivity by definition.
}

TEST(CostModelTest, IndexScanCostEq11GrowsLinearly) {
  const CostModel m(PaperScaleParams());
  EXPECT_DOUBLE_EQ(m.IndexScanCost(0), 0.0);
  const double c1 = m.IndexScanCost(1000);
  const double c2 = m.IndexScanCost(2000);
  EXPECT_GT(c2, c1 * 1.9);
  EXPECT_LT(c2, c1 * 2.1);
  // Dominated by card * randcost.
  EXPECT_NEAR(m.IndexScanCost(1000000), 1000000.0 * 10.0, 1000000.0 * 0.2);
}

TEST(CostModelTest, CrossoverNearOnePercentOfPages) {
  // The textbook tipping point: the index scan beats the full scan only while
  // card * randcost < #P * seqcost, i.e. below ~0.08% of tuples here.
  const CostModel m(PaperScaleParams());
  EXPECT_LT(m.IndexScanCost(m.Cardinality(0.0005)), m.FullScanCost());
  EXPECT_GT(m.IndexScanCost(m.Cardinality(0.002)), m.FullScanCost());
}

TEST(CostModelTest, Mode1CostCapsAtTablePages) {
  const CostModel m(PaperScaleParams());
  // Eq. (14): #Pm1 = min(cardm1, #P).
  EXPECT_DOUBLE_EQ(m.Mode1Cost(100), 1000.0);
  EXPECT_DOUBLE_EQ(m.Mode1Cost(500000000), 3125000.0 * 10.0);
}

TEST(CostModelTest, Mode2RandomAccessesLogBound) {
  const CostModel m(PaperScaleParams());
  // Eqs. (20)/(21): converge to log2(#P + 1).
  const double bound = std::log2(3125000.0 + 1.0);
  EXPECT_DOUBLE_EQ(m.Mode2RandomAccesses(1u << 30), bound);
  EXPECT_DOUBLE_EQ(m.Mode2RandomAccesses(3), 3.0);
}

TEST(CostModelTest, Mode2ApproachesSequentialForLargeResults) {
  const CostModel m(PaperScaleParams());
  const double cost = m.Mode2Cost(400000000, 0);
  // All pages, essentially sequential: within 1% of the full-scan cost.
  EXPECT_NEAR(cost, m.FullScanCost(), 0.01 * m.FullScanCost());
}

TEST(CostModelTest, SmoothScanCostEq23Sums) {
  const CostModel m(PaperScaleParams());
  SmoothScanCardinalities cards;
  cards.mode0 = 1000;
  cards.mode1 = 2000;
  cards.mode2 = 3000;
  const double total = m.SmoothScanCost(cards);
  EXPECT_DOUBLE_EQ(total, m.IndexScanCost(1000) + m.Mode1Cost(2000) +
                              m.Mode2Cost(3000, 2000));
}

TEST(CostModelTest, EagerSmoothScanBoundedByFullScanPlusOverhead) {
  const CostModel m(PaperScaleParams());
  for (double sel = 1e-6; sel <= 1.0; sel *= 4) {
    EXPECT_LE(m.EagerSmoothScanCost(std::min(sel, 1.0)),
              m.FullScanCost() * 1.2)
        << sel;
  }
}

TEST(CostModelTest, SlaTriggerRespectsbound) {
  const CostModel m(PaperScaleParams());
  const double sla = 2.0 * m.FullScanCost();
  const uint64_t trigger = m.SlaTriggerCardinality(sla);
  EXPECT_GT(trigger, 0u);
  EXPECT_LE(m.WorstCaseTriggeredCost(trigger), sla);
  EXPECT_GT(m.WorstCaseTriggeredCost(trigger + 1), sla);
}

TEST(CostModelTest, SlaTriggerZeroWhenUnreachable) {
  const CostModel m(PaperScaleParams());
  EXPECT_EQ(m.SlaTriggerCardinality(1.0), 0u);
}

TEST(CostModelTest, SlaTriggerMatchesPaperScale) {
  // Section VI-D: with an SLA of 2 full scans, the paper's model derives a
  // trigger point of 32 K tuples on the 400 M-tuple table. Our slightly
  // different Mode-2 accounting should land in the same ballpark.
  const CostModel m(PaperScaleParams());
  const uint64_t trigger = m.SlaTriggerCardinality(2.0 * m.FullScanCost());
  EXPECT_GT(trigger, 10000u);
  EXPECT_LT(trigger, 1000000u);
}

TEST(CostModelTest, CompetitiveRatiosSectionVA) {
  const CostModel hdd(PaperScaleParams());
  EXPECT_DOUBLE_EQ(hdd.ElasticWorstCaseRatio(), 5.5);
  EXPECT_DOUBLE_EQ(hdd.TheoreticalBound(), 11.0);

  // The paper reports an Elastic worst case of 3 and a bound of 6 "for
  // randcost = 2": those values actually correspond to a 5:1 ratio under its
  // own closed forms ((r+s)/2s and (r+s)/s). With the measured 2:1 SSD ratio
  // the forms give 1.5 and 3; we verify both readings.
  CostModelParams ssd = PaperScaleParams();
  ssd.rand_cost = 2.0;
  const CostModel ssd_model(ssd);
  EXPECT_DOUBLE_EQ(ssd_model.ElasticWorstCaseRatio(), 1.5);
  EXPECT_DOUBLE_EQ(ssd_model.TheoreticalBound(), 3.0);

  CostModelParams ssd_paper = PaperScaleParams();
  ssd_paper.rand_cost = 5.0;
  const CostModel ssd_paper_model(ssd_paper);
  EXPECT_DOUBLE_EQ(ssd_paper_model.ElasticWorstCaseRatio(), 3.0);
  EXPECT_DOUBLE_EQ(ssd_paper_model.TheoreticalBound(), 6.0);
}

TEST(CostModelTest, EagerCompetitiveRatioIsSmall) {
  const CostModel m(PaperScaleParams());
  const double cr = m.EagerCompetitiveRatio();
  EXPECT_GE(cr, 1.0);
  // The paper empirically observes a CR of ~2 for the Elastic policy.
  EXPECT_LE(cr, 12.0);
}

// ---------- Model vs. simulation ----------

TEST(CostModelValidationTest, PredictionsTrackSimulatedCosts) {
  EngineOptions eo;
  eo.buffer_pool_pages = 128;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 30000;
  MicroBenchDb db(&engine, spec);

  CostModelParams params;
  params.num_tuples = db.heap().num_tuples();
  params.tuple_size = 8192 / (db.heap().num_tuples() / db.heap().num_pages());
  const CostModel model(params);

  // Full scan: model within 35% of simulation (the model ignores read-ahead
  // request grouping, which only changes request counts, not page costs).
  {
    const ScanPredicate pred = db.PredicateForSelectivity(0.5);
    FullScan full(&db.heap(), pred);
    engine.ColdRestart();
    const IoStats before = engine.disk().stats();
    SMOOTHSCAN_CHECK(full.Open().ok());
    TupleBatch batch;
    while (full.NextBatch(&batch)) {
    }
    const double simulated = (engine.disk().stats() - before).io_time;
    EXPECT_NEAR(model.FullScanCost(), simulated, 0.35 * simulated);
  }

  // Index scan at low selectivity: dominated by card random I/Os in both.
  {
    const ScanPredicate pred = db.PredicateForSelectivity(0.01);
    IndexScan index(&db.index(), pred);
    engine.ColdRestart();
    const IoStats before = engine.disk().stats();
    SMOOTHSCAN_CHECK(index.Open().ok());
    uint64_t card = 0;
    TupleBatch batch;
    while (index.NextBatch(&batch)) card += batch.size();
    const double simulated = (engine.disk().stats() - before).io_time;
    const double predicted = model.IndexScanCost(card);
    EXPECT_GT(predicted, simulated * 0.4);
    EXPECT_LT(predicted, simulated * 2.5);
  }
}

// The committed CalibratedCpuModel constants are the calibration sweep's
// output (bench_cost_model_validation); this pins estimate-vs-measured CPU
// drift so a substrate change that invalidates them fails in CI.
TEST(CalibratedCpuModelTest, PerPathEstimatesTrackMeasuredCpu) {
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 30000;
  spec.value_max = 4000;
  MicroBenchDb db(&engine, spec);
  CompressedExtentMap map(&engine);
  const CompressedExtentRef extent =
      map.Enable(db.mutable_heap(), MicroBenchDb::kIndexedColumn);
  ASSERT_NE(extent, nullptr);
  const CalibratedCpuModel cpu;
  const uint64_t n = db.heap().num_tuples();

  const auto measure = [&](AccessPath* path) {
    engine.ColdRestart();
    const double before = engine.cpu().time();
    EXPECT_TRUE(path->Open().ok());
    TupleBatch batch;
    uint64_t card = 0;
    while (path->NextBatch(&batch)) card += batch.size();
    path->Close();
    return std::pair<double, uint64_t>(engine.cpu().time() - before, card);
  };
  const auto expect_within = [](double estimate, double measured, double tol,
                                const char* label) {
    EXPECT_LE(std::abs(estimate - measured), tol * measured)
        << label << ": estimate=" << estimate << " measured=" << measured;
  };

  for (const double sel : {0.05, 0.5}) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);

    // Full scan charges exactly inspect * #T + produce * card: tight bound.
    FullScan full(&db.heap(), pred);
    const auto [full_cpu, full_card] = measure(&full);
    expect_within(cpu.FullScanCpu(n, full_card), full_cpu, 0.01, "full");

    // Index scan: the leaf walk advances ~card entries (plus boundary
    // seeks), so the fused per-result constant is near but not exact.
    IndexScan index(&db.index(), pred);
    const auto [index_cpu, index_card] = measure(&index);
    expect_within(cpu.IndexScanCpu(index_card), index_cpu, 0.10, "index");

    // Compressed scan with *measured* counts (zone consults = extent pages,
    // key checks = inspected runs): tight. The chooser's a-priori estimate
    // replaces checks by tuples / avg_run_length: looser, still bounded.
    CompressedScan comp(&engine, extent, pred);
    const auto [comp_cpu, comp_card] = measure(&comp);
    expect_within(cpu.CompressedScanCpu(extent->num_pages(),
                                        comp.stats().tuples_inspected,
                                        comp_card),
                  comp_cpu, 0.02, "compressed/measured");
    const uint64_t est_checks = static_cast<uint64_t>(
        static_cast<double>(extent->num_tuples) /
        std::max(1.0, extent->avg_run_length()));
    expect_within(
        cpu.CompressedScanCpu(extent->num_pages(), est_checks, comp_card),
        comp_cpu, 0.25, "compressed/a-priori");
  }
}

}  // namespace
}  // namespace smoothscan
