// The paper's figures beyond Figs. 4 and 5, in one sweep: Fig. 1 (tuned
// regressions), Figs. 6-11 (modes, policies and triggers, skew, auxiliary
// structures, SSD, the Switch cliff), the Section V cost model and four
// ablations (batch size, region cap, buffer pool, device ratio). Each
// (engine options, table) pair is built once and every figure on it runs
// against it, cold. Every measured point is one row of
// BENCH_paper_figures.json; the series name carries the figure and any
// sweep value other than selectivity ("fig10 SmoothScan", "ablation cap=64
// SmoothScan"), and sel_pct is always the selectivity.
//
// Expected shapes (paper): Mode 1 alone stays an order of magnitude above
// Full Scan on HDD, Flattening closes the gap (Fig. 6); Elastic shrinks its
// region after the dense head and tracks the best fixed path under skew
// (Fig. 8); Switch Scan pays a whole full scan the moment the estimate is
// violated, Smooth Scan has no cliff (Fig. 11); simulated time does not
// depend on the batch size.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "bench_util.h"
#include "compress/compressed_scan.h"
#include "cost/cost_model.h"
#include "plan/access_path_chooser.h"
#include "tpch/tpch_gen.h"
#include "workload/micro_bench.h"

using namespace smoothscan;
using bench::ExtraField;
using bench::MeasureScan;
using bench::MeasureScanBatched;
using bench::PrintSweepHeader;
using bench::PrintSweepRow;
using bench::RunMetrics;

namespace {

/// Fig. 5's selectivity grid, shared by Figs. 6 and 10.
const std::vector<double> kFig05Sels = {0.0,  0.00001, 0.0001, 0.001, 0.01,
                                        0.05, 0.2,     0.5,    0.75,  1.0};

using PathFactory =
    std::function<std::unique_ptr<AccessPath>(const ScanPredicate&)>;

PathFactory Full(const MicroBenchDb& db) {
  return [&db](const ScanPredicate& p) {
    return std::make_unique<FullScan>(&db.heap(), p);
  };
}
PathFactory Index(const MicroBenchDb& db) {
  return [&db](const ScanPredicate& p) {
    return std::make_unique<IndexScan>(&db.index(), p);
  };
}
PathFactory Sort(const MicroBenchDb& db) {
  return [&db](const ScanPredicate& p) {
    return std::make_unique<SortScan>(&db.index(), p);
  };
}
PathFactory Smooth(const MicroBenchDb& db, SmoothScanOptions o = {}) {
  return [&db, o](const ScanPredicate& p) {
    return std::make_unique<SmoothScan>(&db.index(), p, o);
  };
}
PathFactory Switch(const MicroBenchDb& db, SwitchScanOptions o) {
  return [&db, o](const ScanPredicate& p) {
    return std::make_unique<SwitchScan>(&db.index(), p, o);
  };
}

/// One series of a sweep: its row name, the path it measures, the batch
/// capacity it drains with, and fields every one of its rows carries.
struct Series {
  std::string name;
  PathFactory make;
  size_t batch_size = kDefaultBatchSize;
  std::vector<ExtraField> extras = {};
};

/// Measures every series at every selectivity (selectivity outer), cold.
void Sweep(Engine* engine, const MicroBenchDb& db,
           const std::vector<double>& sels, const std::vector<Series>& series) {
  for (const double sel : sels) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    for (const Series& s : series) {
      std::unique_ptr<AccessPath> path = s.make(pred);
      PrintSweepRow(sel * 100.0, s.name,
                    MeasureScanBatched(engine, path.get(), s.batch_size),
                    s.extras);
    }
  }
  std::printf("\n");
}

MicroBenchSpec Uniform(uint64_t num_tuples) {
  MicroBenchSpec spec;
  spec.num_tuples = num_tuples;
  return spec;
}

/// Builds one engine and its micro-benchmark table, runs `run` on them and
/// frees both.
template <typename Spec, typename Run>
void WithTable(DeviceProfile device, size_t pool_pages, const Spec& spec,
               Run&& run) {
  EngineOptions options;
  options.device = device;
  options.buffer_pool_pages = pool_pages;
  Engine engine(options);
  MicroBenchDb db(&engine, spec);
  run(&engine, db);
}

/// The Section V model of `heap`.
CostModel ModelOf(const HeapFile& heap) {
  CostModelParams params;
  params.num_tuples = heap.num_tuples();
  params.tuple_size =
      static_cast<uint64_t>(8192 / (heap.num_tuples() / heap.num_pages()));
  return CostModel(params);
}

void Fig06Modes(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Fig 6: Smooth Scan mode sensitivity", "HDD");
  SmoothScanOptions mode1;
  mode1.enable_flattening = false;
  Sweep(engine, db, kFig05Sels,
        {{"fig06 FullScan", Full(db)},
         {"fig06 IndexScan", Index(db)},
         {"fig06 Smooth(EntirePageProbe)", Smooth(db, mode1)},
         {"fig06 Smooth(FlatteningAccess)", Smooth(db)}});
}

/// (a) morphing policies under the Eager trigger; (b) triggers. The paper's
/// optimizer estimate (15 K of 400 M tuples) is scaled to the table, and the
/// SLA trigger (2 full scans) is derived from the Section V model.
void Fig07PoliciesTriggers(Engine* engine, const MicroBenchDb& db) {
  const std::vector<double> sels = {
      0.0,    0.00001, 0.00002, 0.00004, 0.00006, 0.00008, 0.0001, 0.0005,
      0.001,  0.05,    0.1,     0.2,     0.3,     0.5,     0.75,   1.0};
  PrintSweepHeader("Fig 7a: morphing policies", "Eager trigger");
  std::vector<Series> policies;
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    SmoothScanOptions so;
    so.policy = policy;
    policies.push_back(
        {std::string("fig07a ") + MorphPolicyToString(policy), Smooth(db, so)});
  }
  Sweep(engine, db, sels, policies);

  const CostModel model = ModelOf(db.heap());
  const double sla_bound = 2.0 * model.FullScanCost();
  const uint64_t sla_trigger = model.SlaTriggerCardinality(sla_bound);
  const uint64_t optimizer_estimate = std::max<uint64_t>(
      1, db.heap().num_tuples() * 15000 / 400000000);
  std::printf("# SLA bound = %.1f (2 full scans), derived trigger = %llu "
              "tuples; optimizer estimate = %llu tuples\n",
              sla_bound, static_cast<unsigned long long>(sla_trigger),
              static_cast<unsigned long long>(optimizer_estimate));
  PrintSweepHeader("Fig 7b: morphing triggers", "");
  SmoothScanOptions eager;
  eager.policy = MorphPolicy::kElastic;
  SmoothScanOptions opt;
  opt.trigger = MorphTrigger::kOptimizerDriven;
  opt.optimizer_estimate = optimizer_estimate;
  opt.post_trigger_policy = MorphPolicy::kSelectivityIncrease;
  SmoothScanOptions sla;
  sla.trigger = MorphTrigger::kSlaDriven;
  sla.sla_trigger_cardinality = sla_trigger;
  sla.post_trigger_policy = MorphPolicy::kGreedy;  // Section VI-D.
  Sweep(engine, db, sels,
        {{"fig07b Eager(Elastic)", Smooth(db, eager)},
         {"fig07b OptimizerDriven", Smooth(db, opt)},
         {"fig07b SlaDriven", Smooth(db, sla)}});
}

/// Skew: a dense head of matches (1% of the table) plus a sprinkle of random
/// ones. distinct_pages is the number of different pages each path touched.
void Fig08Skew(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Fig 8: skewed distribution", "dense head + sparse tail");
  const ScanPredicate pred = db.ZeroKeyPredicate();
  FullScan full(&db.heap(), pred);
  const RunMetrics mf = MeasureScan(engine, &full);
  const double pct = 100.0 * static_cast<double>(mf.tuples) /
                     static_cast<double>(db.heap().num_tuples());
  const auto row = [&](const char* series, const RunMetrics& m,
                       uint64_t distinct_pages) {
    PrintSweepRow(pct, series, m,
                  {{"distinct_pages", static_cast<double>(distinct_pages)}});
  };
  row("fig08 FullScan", mf, db.heap().num_pages());
  IndexScan index(&db.index(), pred);
  const RunMetrics mi = MeasureScan(engine, &index);
  row("fig08 IndexScan", mi, mi.pages_read);
  for (const MorphPolicy policy :
       {MorphPolicy::kSelectivityIncrease, MorphPolicy::kElastic}) {
    SmoothScanOptions so;
    so.policy = policy;
    SmoothScan smooth(&db.index(), pred, so);
    const RunMetrics m = MeasureScan(engine, &smooth);
    row(policy == MorphPolicy::kElastic ? "fig08 Smooth(Elastic)"
                                        : "fig08 Smooth(SI)",
        m, smooth.smooth_stats().pages_seen);
  }
  std::printf("\n");
}

/// The ORDER BY query: the Result Cache's overhead over the unordered scan
/// and its hit rate, and morphing accuracy (the share of pages fetched beyond
/// the index-targeted one that held results).
void Fig09AuxStructures(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Fig 9: Result Cache overhead, hit rate, morphing accuracy",
                   "ORDER BY query");
  for (const double sel :
       {0.00001, 0.0001, 0.001, 0.01, 0.025, 0.2, 0.5, 0.75, 1.0}) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    SmoothScan unordered(&db.index(), pred);
    const RunMetrics mu = MeasureScan(engine, &unordered);
    PrintSweepRow(sel * 100.0, "fig09 SmoothScan", mu);
    SmoothScanOptions so;
    so.preserve_order = true;
    SmoothScan ordered(&db.index(), pred, so);
    const RunMetrics mo = MeasureScan(engine, &ordered);
    const SmoothScanStats& ss = ordered.smooth_stats();
    const double overhead =
        mu.total_time > 0
            ? 100.0 * (mo.total_time - mu.total_time) / mu.total_time
            : 0.0;
    PrintSweepRow(sel * 100.0, "fig09 SmoothScan ordered", mo,
                  {{"overhead_pct", overhead},
                   {"rc_hit_rate_pct", 100.0 * ss.ResultCacheHitRate()},
                   {"accuracy_pct", 100.0 * ss.MorphingAccuracy()},
                   {"rc_max_size", static_cast<double>(ss.rc_max_size)}});
  }
  std::printf("\n");
}

void Fig10Ssd(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Fig 10: Smooth Scan on SSD", "rand:seq = 2:1");
  Sweep(engine, db, kFig05Sels,
        {{"fig10 FullScan", Full(db)},
         {"fig10 IndexScan", Index(db)},
         {"fig10 SortScan", Sort(db)},
         {"fig10 SmoothScan", Smooth(db)}});
}

/// Switch Scan's cliff across the optimizer's estimate (32 K of 400 M
/// tuples, scaled): index-like below it, a whole extra full scan above it.
void Fig11SwitchCliff(Engine* engine, const MicroBenchDb& db) {
  const uint64_t estimate =
      std::max<uint64_t>(1, db.heap().num_tuples() * 32000 / 400000000);
  std::printf("# optimizer estimate (switch threshold) = %llu tuples\n",
              static_cast<unsigned long long>(estimate));
  PrintSweepHeader("Fig 11: Switch Scan performance cliff", "");
  SwitchScanOptions sw;
  sw.estimated_cardinality = estimate;
  Sweep(engine, db,
        {0.00001, 0.00002, 0.00004, 0.00006, 0.00008, 0.0001, 0.0002, 0.001,
         0.01, 0.1, 0.5, 1.0},
        {{"fig11 FullScan", Full(db)},
         {"fig11 SwitchScan", Switch(db, sw), kDefaultBatchSize,
          {{"estimate", static_cast<double>(estimate)}}},
         {"fig11 SmoothScan", Smooth(db)}});
}

/// Simulated time must not depend on the batch size (the same tuples are
/// inspected and produced); wall time is what batching buys.
void BatchSizeAblation(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Ablation: batch size", "sim time batch-invariant");
  std::vector<Series> series;
  for (const size_t batch : {1u, 64u, 256u, 1024u, 4096u}) {
    const std::string n = std::to_string(batch);
    series.push_back({"ablation batch=" + n + " FullScan", Full(db), batch});
    series.push_back(
        {"ablation batch=" + n + " SmoothScan", Smooth(db), batch});
  }
  Sweep(engine, db, {0.01, 0.2, 1.0}, series);
}

/// Section VI-D: the maximum morphing-region size (the paper uses 2 K pages).
void RegionCapAblation(Engine* engine, const MicroBenchDb& db) {
  PrintSweepHeader("Ablation: max morphing region (pages)", "");
  std::vector<Series> series;
  for (const uint32_t cap : {1, 16, 64, 256, 1024, 2048, 8192}) {
    SmoothScanOptions so;
    so.max_region_pages = cap;
    series.push_back({"ablation cap=" + std::to_string(cap) + " SmoothScan",
                      Smooth(db, so)});
  }
  Sweep(engine, db, {0.01, 0.2, 1.0}, series);
}

/// A pool covering the table rescues the Index Scan's repeated accesses;
/// Smooth Scan reads every page once and barely notices the pool.
void BufferPoolAblation() {
  PrintSweepHeader("Ablation: buffer-pool capacity (pages)", "");
  for (const size_t pool : {64u, 256u, 1024u, 4096u, 8192u}) {
    WithTable(DeviceProfile::Hdd(), pool, Uniform(400000),
              [pool](Engine* engine, const MicroBenchDb& db) {
                const std::string n = std::to_string(pool);
                Sweep(engine, db, {0.02},
                      {{"ablation pool=" + n + " IndexScan", Index(db)},
                       {"ablation pool=" + n + " SmoothScan", Smooth(db)}});
              });
  }
}

/// Section V-A: Smooth Scan's competitive ratio against the best fixed path
/// is driven by the random:sequential cost ratio of the device.
void DeviceRatioAblation() {
  PrintSweepHeader("Ablation: rand:seq cost ratio", "cr = smooth / best fixed");
  for (const double ratio : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    WithTable(
        DeviceProfile{"sweep", ratio, 1.0}, 512, Uniform(200000),
        [ratio](Engine* engine, const MicroBenchDb& db) {
          const std::string prefix =
              "ablation ratio=" + std::to_string(static_cast<int>(ratio)) + " ";
          for (const double sel : {0.0005, 0.02, 1.0}) {
            const ScanPredicate pred = db.PredicateForSelectivity(sel);
            const double pct = sel * 100.0;
            FullScan full(&db.heap(), pred);
            IndexScan index(&db.index(), pred);
            SmoothScan smooth(&db.index(), pred);
            const RunMetrics mf = MeasureScan(engine, &full);
            const RunMetrics mi = MeasureScan(engine, &index);
            const RunMetrics ms = MeasureScan(engine, &smooth);
            const double best = std::min(mf.total_time, mi.total_time);
            PrintSweepRow(pct, prefix + "FullScan", mf);
            PrintSweepRow(pct, prefix + "IndexScan", mi);
            PrintSweepRow(pct, prefix + "SmoothScan", ms,
                          {{"cr", ms.total_time / best}});
            std::printf("# ratio %.0f sel %.4f%%: best static %.1f, smooth "
                        "%.1f, CR %.2f, winner %s\n",
                        ratio, pct, best, ms.total_time, ms.total_time / best,
                        ms.total_time <= best ? "smooth" : "static");
          }
        });
  }
  std::printf("\n");
}

/// Section V: the model's I/O predictions for Full, Index and Eager Smooth
/// Scan against simulated I/O, the competitive-ratio summary, and the CPU
/// calibration sweep that fits CalibratedCpuModel's constants from measured
/// CpuMeter charges (cost_model_test pins estimate-vs-measured drift).
void CostModelValidation(Engine* engine, MicroBenchDb& db) {
  const CostModel model = ModelOf(db.heap());
  PrintSweepHeader("Section V: cost model vs simulation",
                   "model_io = predicted io_time");
  for (const double sel : {0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0}) {
    const ScanPredicate pred = db.PredicateForSelectivity(sel);
    const double pct = sel * 100.0;
    FullScan full(&db.heap(), pred);
    PrintSweepRow(pct, "costmodel FullScan", MeasureScan(engine, &full),
                  {{"model_io", model.FullScanCost()}});
    IndexScan index(&db.index(), pred);
    const RunMetrics mi = MeasureScan(engine, &index);
    PrintSweepRow(pct, "costmodel IndexScan", mi,
                  {{"model_io", model.IndexScanCost(mi.tuples)}});
    SmoothScan smooth(&db.index(), pred);
    PrintSweepRow(pct, "costmodel SmoothScan", MeasureScan(engine, &smooth),
                  {{"model_io", model.EagerSmoothScanCost(sel)}});
  }

  std::printf("\n# Section V-A competitive analysis summary\n");
  std::printf("elastic worst-case CR (HDD 10:1): %.2f (theoretical bound "
              "%.2f)\n",
              model.ElasticWorstCaseRatio(), model.TheoreticalBound());
  CostModelParams ssd = model.params();
  ssd.rand_cost = 2.0;
  const CostModel ssd_model(ssd);
  std::printf("elastic worst-case CR (SSD 2:1):  %.2f (theoretical bound "
              "%.2f)\n",
              ssd_model.ElasticWorstCaseRatio(), ssd_model.TheoreticalBound());
  std::printf("eager Smooth Scan numeric CR over the model: %.2f\n",
              model.EagerCompetitiveRatio());
  const double sla = 2.0 * model.FullScanCost();
  std::printf("SLA = 2 full scans (%.0f) -> trigger cardinality %llu\n", sla,
              static_cast<unsigned long long>(
                  model.SlaTriggerCardinality(sla)));

  // Two full-scan selectivities isolate produce (slope over cardinality)
  // then inspect; the index scan's fused per-result charge minus those
  // yields index_entry; a full-domain CompressedCountRange touches zone
  // metadata alone (zone_consult); and the compressed scan's residual CPU
  // over its inspected-run count yields key_check.
  CompressedExtentMap cmap(engine);
  const CompressedExtentRef extent =
      cmap.Enable(db.mutable_heap(), MicroBenchDb::kIndexedColumn);
  const double n = static_cast<double>(db.heap().num_tuples());
  const auto full_run = [&](double sel) {
    FullScan full(&db.heap(), db.PredicateForSelectivity(sel));
    return MeasureScan(engine, &full);
  };
  const RunMetrics f_lo = full_run(0.1);
  const RunMetrics f_hi = full_run(0.9);
  const double produce = (f_hi.cpu_time - f_lo.cpu_time) /
                         static_cast<double>(f_hi.tuples - f_lo.tuples);
  const double inspect =
      (f_lo.cpu_time - produce * static_cast<double>(f_lo.tuples)) / n;

  IndexScan index_scan(&db.index(), db.PredicateForSelectivity(0.01));
  const RunMetrics index_m = MeasureScan(engine, &index_scan);
  const double index_entry =
      index_m.cpu_time / static_cast<double>(index_m.tuples) - inspect -
      produce;

  // Full-domain probe: every block's zone interval is inside the range.
  const double pages = static_cast<double>(extent->num_pages());
  const double zone_consult =
      bench::MeasureCold(engine,
                         [&] {
                           return CompressedCountRange(
                               extent, 0, db.value_max() + 1,
                               EngineContext(engine));
                         })
          .cpu_time /
      pages;

  CompressedScan comp(engine, extent, db.PredicateForSelectivity(0.5));
  const RunMetrics c = MeasureScan(engine, &comp);
  const double key_check = (c.cpu_time - zone_consult * pages -
                            produce * static_cast<double>(c.tuples)) /
                           static_cast<double>(comp.stats().tuples_inspected);

  const CalibratedCpuModel committed;
  std::printf("\n# CPU calibration sweep (fitted vs committed defaults)\n");
  std::printf("%-14s %14s %14s\n", "constant", "fitted", "committed");
  for (const auto& [name, fitted, value] :
       {std::tuple{"inspect_tuple", inspect, committed.inspect_tuple},
        std::tuple{"produce_tuple", produce, committed.produce_tuple},
        std::tuple{"index_entry", index_entry, committed.index_entry},
        std::tuple{"key_check", key_check, committed.key_check},
        std::tuple{"zone_consult", zone_consult, committed.zone_consult}}) {
    std::printf("%-14s %14.6e %14.6e\n", name, fitted, value);
  }
  std::printf("\n");
}

/// Fig. 1: the advisor's indexes seduce an optimizer with stale statistics
/// into index scans. Each of the paper's 19 plotted queries is modelled by
/// its LINEITEM selectivity and the misestimation factor of its statistics
/// (severe on Q12/Q19, moderate on Q3/Q18/Q21; DBMS-X and its advisor are
/// closed-source). "original" has no index (a full scan); "tuned" prices a
/// full against an index scan with the corrupted estimate, the choice DBMS-X
/// faced. normalized = tuned / original, the paper's metric.
void Fig01TunedRegression() {
  struct Scenario {
    const char* name;
    double selectivity;    // True LINEITEM predicate selectivity.
    double misestimation;  // Optimizer believes sel * this.
  };
  constexpr Scenario kScenarios[] = {
      {"Q1", 0.98, 1.0},    {"Q2", 0.001, 1.0},   {"Q3", 0.08, 0.01},
      {"Q4", 0.65, 1.0},    {"Q5", 0.30, 1.0},    {"Q6", 0.02, 1.0},
      {"Q7", 0.30, 1.0},    {"Q8", 0.10, 1.0},    {"Q9", 0.05, 1.0},
      {"Q10", 0.25, 1.0},   {"Q11", 0.01, 1.0},   {"Q12", 0.60, 0.001},
      {"Q13", 0.90, 1.0},   {"Q14", 0.01, 1.0},   {"Q16", 0.002, 1.0},
      {"Q18", 0.045, 0.02}, {"Q19", 0.35, 0.002}, {"Q21", 0.06, 0.015},
      {"Q22", 0.005, 1.0},
  };
  EngineOptions options;
  options.buffer_pool_pages = 512;
  Engine engine(options);
  tpch::TpchSpec spec;
  spec.scale_factor = 0.01;
  tpch::TpchDb db(&engine, spec);
  const HeapFile& lineitem = db.lineitem();
  const TableStats honest =
      TableStats::Compute(lineitem, tpch::lineitem::kShipDate);
  const CostModel model = ModelOf(lineitem);

  PrintSweepHeader("Fig 1: tuned vs original (TPC-H SF 0.01 LINEITEM)",
                   "normalized = tuned / original");
  const int64_t lo = tpch::DateDays(1992, 1, 1);
  const int64_t max_hi = tpch::DateDays(1999, 6, 1);
  for (const Scenario& s : kScenarios) {
    // The shipdate range the honest histogram gives the target selectivity.
    ScanPredicate pred;
    pred.column = tpch::lineitem::kShipDate;
    pred.lo = lo;
    pred.hi = lo;
    while (pred.hi < max_hi &&
           honest.EstimateSelectivity(lo, pred.hi) < s.selectivity) {
      ++pred.hi;
    }
    FullScan original(&lineitem, pred);
    const RunMetrics mo = MeasureScan(&engine, &original);

    TableStats corrupted = honest;
    corrupted.CorruptScale(s.misestimation);
    const uint64_t est_card = corrupted.EstimateCardinality(pred.lo, pred.hi);
    const PathKind kind = model.IndexScanCost(est_card) < model.FullScanCost()
                              ? PathKind::kIndexScan
                              : PathKind::kFullScan;
    std::unique_ptr<AccessPath> tuned = MakePath(
        kind, &db.lineitem_shipdate_index(), pred, false, est_card);
    const RunMetrics mt = MeasureScan(&engine, tuned.get());

    const double pct = s.selectivity * 100.0;
    const std::string q = std::string("fig01 ") + s.name;
    PrintSweepRow(pct, q + " original", mo);
    PrintSweepRow(pct, q + " tuned", mt,
                  {{"misestimation", s.misestimation},
                   {"index_plan", kind == PathKind::kIndexScan ? 1.0 : 0.0},
                   {"normalized", mt.total_time / mo.total_time}});
  }
}

}  // namespace

int main() {
  bench::OpenJson("paper_figures");
  WithTable(DeviceProfile::Hdd(), 512, Uniform(400000),
            [](Engine* engine, const MicroBenchDb& db) {
              for (const auto figure :
                   {Fig06Modes, Fig07PoliciesTriggers, Fig09AuxStructures,
                    Fig11SwitchCliff, BatchSizeAblation, RegionCapAblation}) {
                // Each figure starts from a zeroed CPU meter, as on an
                // engine of its own: a run's CPU time is a difference of
                // running totals, and its last digits depend on the total.
                engine->cpu().Reset();
                figure(engine, db);
              }
            });
  WithTable(DeviceProfile::Ssd(), 512, Uniform(400000), Fig10Ssd);
  // The paper's 1.5 B-tuple table scaled down: a dense head of 1% of the
  // tuples, then 0.05% random extra matches (scaled up from the paper's
  // 0.001% so the post-head region still sees matches at this size).
  SkewedBenchSpec skewed;
  skewed.num_tuples = 400000;
  skewed.dense_prefix = 4000;
  skewed.extra_match_fraction = 0.0005;
  WithTable(DeviceProfile::Hdd(), 512, skewed, Fig08Skew);
  BufferPoolAblation();
  DeviceRatioAblation();
  WithTable(DeviceProfile::Hdd(), 256, Uniform(200000), CostModelValidation);
  Fig01TunedRegression();
  bench::CloseJson();
  return 0;
}
