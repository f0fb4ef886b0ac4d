// tpch_parallel: one closed-loop client cycling tpch::RunQuery over Q1, Q4,
// Q6, Q7, Q12, Q14 and Q19 with a Smooth Scan LINEITEM leaf at dop 2 below
// the Gather exchange, each query cold (ColdRestart before the timer).
//
// Why: the only workload where the exec operators (hash/INL joins,
// aggregation, Gather), the ParallelScan morsel kernels and the per-query
// private TaskScheduler do most of the work — where the Fig. 4b "parallel is
// slower" gap shows. LINEITEM (SF 0.02, ~1.6k pages) is 3x the 512-page
// buffer pool, as in bench_fig04_tpch.
//
// Every result is compared against a serial (dop 0) Full Scan reference
// computed at setup, with a relative tolerance on floating-point sums; every
// repeat of a query must charge the same simulated cost. sim_cost_per_query
// is the mean over the first cycle, which starts from the same engine state
// for a given seed, so it is bit-identical across runs of that seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using namespace smoothscan;
using namespace smoothscan::tpch;

constexpr int kQueries[] = {1, 4, 6, 7, 12, 14, 19};
constexpr size_t kNumQueries = std::size(kQueries);
constexpr double kScaleFactor = 0.02;
constexpr size_t kPoolPages = 512;
constexpr uint32_t kDop = 2;
constexpr int kSetups = 9;
constexpr int kProbeReps = 5;
/// A run completes several hundred queries: p95 keeps ten samples beyond.
constexpr double kTailQ = 0.95;
constexpr double kRelTolerance = 1e-9;

namespace li = lineitem;

/// The LINEITEM leaf predicate of each query, as src/tpch/queries.cc builds
/// it; the leaf-alone probe checks its output count against the query's own
/// leaf counters, so a drift between the two shows up as a failure.
ScanPredicate LineitemPredicate(int query) {
  ScanPredicate pred;
  pred.column = li::kShipDate;
  switch (query) {
    case 1:
      pred.lo = DateDays(1992, 1, 1);
      pred.hi = DateDays(1998, 9, 2) + 1;
      break;
    case 4:
      pred.residual = [](const Tuple& t) {
        return t[li::kCommitDate].AsInt64() < t[li::kReceiptDate].AsInt64();
      };
      break;
    case 6:
      pred.lo = DateDays(1994, 1, 1);
      pred.hi = DateDays(1995, 1, 1);
      pred.residual = [](const Tuple& t) {
        const double discount = t[li::kDiscount].AsDouble();
        return discount >= 0.05 - 1e-9 && discount <= 0.07 + 1e-9 &&
               t[li::kQuantity].AsDouble() < 24.0;
      };
      break;
    case 7:
      pred.lo = DateDays(1995, 1, 1);
      pred.hi = DateDays(1996, 12, 31) + 1;
      break;
    case 12: {
      pred.lo = DateDays(1993, 11, 25);
      pred.hi = DateDays(1995, 1, 1);
      const int64_t receipt_lo = DateDays(1994, 1, 1);
      const int64_t receipt_hi = DateDays(1995, 1, 1);
      pred.residual = [=](const Tuple& t) {
        const std::string& mode = t[li::kShipMode].AsString();
        if (mode != "MAIL" && mode != "SHIP") return false;
        const int64_t ship = t[li::kShipDate].AsInt64();
        const int64_t commit = t[li::kCommitDate].AsInt64();
        const int64_t receipt = t[li::kReceiptDate].AsInt64();
        return commit < receipt && ship < commit && receipt >= receipt_lo &&
               receipt < receipt_hi;
      };
      break;
    }
    case 14:
      pred.lo = DateDays(1995, 9, 1);
      pred.hi = DateDays(1995, 10, 1);
      break;
    case 19:
      pred.residual = [](const Tuple& t) {
        const std::string& mode = t[li::kShipMode].AsString();
        return (mode == "AIR" || mode == "REG AIR") &&
               t[li::kQuantity].AsDouble() <= 30.0;
      };
      break;
  }
  return pred;
}

EngineOptions TpchEngineOptions() {
  EngineOptions options;
  options.buffer_pool_pages = kPoolPages;
  return options;
}

TpchSpec Spec(uint64_t seed) {
  TpchSpec spec;
  spec.scale_factor = kScaleFactor;
  spec.seed = Rng(seed).Fork(2).Next();
  return spec;
}

struct Fixture {
  explicit Fixture(uint64_t seed)
      : engine(TpchEngineOptions()), db(&engine, Spec(seed)) {
    for (const int q : kQueries) {
      reference[q] = RunQuery(q, db, PathKind::kFullScan, /*dop=*/0);
    }
  }
  Engine engine;
  TpchDb db;
  std::map<int, QueryOutput> reference;
};

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::fabs(x - y) <=
         kRelTolerance * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::string CompareRows(const std::vector<Tuple>& got,
                        const std::vector<Tuple>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " rows, reference " +
           std::to_string(want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return "row width differs";
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameValue(got[r][c], want[r][c])) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + got[r][c].ToString() + " vs reference " +
               want[r][c].ToString();
      }
    }
  }
  return "";
}

std::string QueryLabel(int query) {
  std::string label = "Q";
  label += std::to_string(query);
  label += ": ";
  return label;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct LoopResult {
  uint64_t queries = 0;
  uint64_t rows = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;
};

struct LayerTally {
  StorageTally storage;
  std::map<int, std::vector<double>> wall_ms;  ///< Per query number.
};

class TpchRun {
 public:
  TpchRun(Fixture* f, Report* report, uint64_t seed)
      : f_(f),
        report_(report),
        cursor_(Rng(seed).Fork(3).Next() % kNumQueries) {}

  /// Closed loop for `seconds` (and, with `need_cycle`, until every query
  /// ran once). `windows` (optional) gets a window per cycle of the seven.
  LoopResult Loop(double seconds, bool need_cycle, Tracer* tracer,
                  LayerTally* tally, WindowMeter* windows) {
    LoopResult out;
    const uint64_t start = cursor_;
    const Clock::time_point t0 = Clock::now();
    while (SecondsSince(t0) < seconds ||
           (need_cycle && cursor_ - start < kNumQueries)) {
      const int q = kQueries[cursor_++ % kNumQueries];
      Engine& engine = f_->engine;
      engine.ColdRestart();
      const IoStats io0 = engine.disk().stats();
      const double sim0 = engine.TotalTime();
      const Clock::time_point q0 = Clock::now();
      QueryOutput output;
      {
        Span span(tracer, cursor_, "exec.query");
        output = RunQuery(q, f_->db, PathKind::kSmoothScan, kDop);
      }
      const double ms = MsBetween(q0, Clock::now());
      const double sim = engine.TotalTime() - sim0;
      const IoStats io = engine.disk().stats() - io0;
      out.latency_ms.push_back(ms);
      ++out.queries;
      out.rows += output.rows.size();

      const QueryOutput& want = f_->reference[q];
      std::string error = CompareRows(output.rows, want.rows);
      if (error.empty() && output.lineitem_stats.tuples_produced !=
                               want.lineitem_stats.tuples_produced) {
        error = "leaf produced " +
                std::to_string(output.lineitem_stats.tuples_produced) +
                ", reference " +
                std::to_string(want.lineitem_stats.tuples_produced);
      }
      auto [it, first] = sim_.emplace(q, sim);
      // The cost is a delta of the engine's running totals, so repeats agree
      // up to the rounding of those accumulators, not bit for bit.
      if (error.empty() && !first &&
          std::fabs(it->second - sim) > kRelTolerance * it->second) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "simulated cost did not repeat: %.17g vs %.17g", sim,
                      it->second);
        error = buf;
      }
      if (!error.empty()) error = QueryLabel(q) + error;
      report_->Record(error);

      if (tally != nullptr) {
        tally->storage.Add(io.pages_read, io.random_ios, io.seq_ios,
                           io.io_time, sim);
        tally->wall_ms[q].push_back(ms);
      }
      if (windows != nullptr && (cursor_ - start) % kNumQueries == 0) {
        windows->Close(out.queries, out.rows);
      }
    }
    out.seconds = SecondsSince(t0);
    return out;
  }

  /// Mean simulated cost of one cycle (each query once, in query order).
  double SimCostPerQuery() const {
    double total = 0.0;
    for (const int q : kQueries) total += sim_.at(q);
    return total / static_cast<double>(kNumQueries);
  }

 private:
  Fixture* f_;
  Report* report_;
  uint64_t cursor_;
  std::map<int, double> sim_;  ///< First simulated cost seen per query.
};

/// Wall milliseconds of draining `make()`'s path cold, median of the reps;
/// `rows` receives the produced count (checked equal across reps).
template <typename Make>
double DrainMedianMs(Fixture* f, Tracer* tracer, const char* span_name,
                     Make make, uint64_t* rows, Report* report) {
  std::vector<double> walls;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    f->engine.ColdRestart();
    std::unique_ptr<AccessPath> path = make();
    const Clock::time_point t0 = Clock::now();
    uint64_t n = 0;
    Status st;
    {
      Span span(tracer, 1u << 30, span_name);
      st = path->Open();
      TupleBatch batch;
      while (st.ok() && path->NextBatch(&batch)) n += batch.size();
      path->Close();
    }
    walls.push_back(MsBetween(t0, Clock::now()));
    std::string error;
    if (!st.ok()) {
      error = std::string(span_name) + " Open failed: " + st.ToString();
    } else if (rep > 0 && n != *rows) {
      error = std::string(span_name) + " produced a different count";
    }
    report->Record(error);
    *rows = n;
  }
  return Median(walls);
}

void ParallelProbes(Fixture* f, Tracer* tracer, Report* report) {
  const BPlusTree* index = &f->db.lineitem_shipdate_index();
  ScanPredicate all;  // 100% of LINEITEM.
  all.column = li::kShipDate;
  double serial_sum = 0.0, dop1_sum = 0.0, dop2_sum = 0.0;
  for (const PathKind kind : {PathKind::kFullScan, PathKind::kSmoothScan}) {
    uint64_t serial_rows = 0, dop1_rows = 0, dop2_rows = 0;
    const double serial = DrainMedianMs(
        f, tracer, "access.parallel.serial",
        [&] { return MakePath(kind, index, all, false, 0); }, &serial_rows,
        report);
    auto parallel = [&](uint32_t dop) {
      return [&, dop]() -> std::unique_ptr<AccessPath> {
        ParallelScanOptions options;
        options.dop = dop;
        return MakeParallelPath(kind, index, all, false, 0, options);
      };
    };
    const double dop1 = DrainMedianMs(f, tracer, "access.parallel.dop1",
                                      parallel(1), &dop1_rows, report);
    const double dop2 = DrainMedianMs(f, tracer, "access.parallel.dop2",
                                      parallel(2), &dop2_rows, report);
    report->Record(serial_rows == dop1_rows && serial_rows == dop2_rows
                       ? ""
                       : std::string(KindName(kind)) +
                             " parallel probe counts differ from serial");
    const std::string k = std::string("access.parallel.") + KindName(kind);
    report->Set(k + ".dop1_over_serial", dop1 / serial);
    report->Set(k + ".speedup_dop2", serial / dop2);
    serial_sum += serial;
    dop1_sum += dop1;
    dop2_sum += dop2;
  }
  report->Set("access.parallel.dop1_over_serial", dop1_sum / serial_sum);
  report->Set("access.parallel.speedup_dop2", serial_sum / dop2_sum);
}

void LeafProbes(Fixture* f, Tracer* tracer, const LayerTally& tally,
                Report* report) {
  for (const int q : kQueries) {
    const ScanPredicate pred = LineitemPredicate(q);
    uint64_t rows = 0;
    const double leaf_ms = DrainMedianMs(
        f, tracer, "exec.leaf_alone",
        [&]() -> std::unique_ptr<AccessPath> {
          ParallelScanOptions options;
          options.dop = kDop;
          return MakeParallelPath(PathKind::kSmoothScan,
                                  &f->db.lineitem_shipdate_index(), pred,
                                  false, 0, options);
        },
        &rows, report);
    const uint64_t want = f->reference[q].lineitem_stats.tuples_produced;
    report->Record(rows == want ? ""
                                : QueryLabel(q) + "leaf alone produced " +
                                      std::to_string(rows) + ", query leaf " +
                                      std::to_string(want));
    const std::string name = "exec.q" + std::to_string(q);
    const auto it = tally.wall_ms.find(q);
    const double query_ms =
        it == tally.wall_ms.end() ? 0.0 : Median(it->second);
    report->Set(name + ".wall_ms", query_ms);
    report->Set(name + ".leaf_frac", query_ms > 0 ? leaf_ms / query_ms : 0.0);
  }
}

}  // namespace

int RunTpchParallel(const Args& args, Report* report) {
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      kSetups, report, [&] { return std::make_unique<Fixture>(args.seed); });
  std::fprintf(stderr,
               "tpch_parallel: SF %.3f, LINEITEM %llu tuples in %zu pages, "
               "pool %zu pages, dop %u\n",
               kScaleFactor,
               static_cast<unsigned long long>(f->db.lineitem().num_tuples()),
               f->db.lineitem().num_pages(), kPoolPages, kDop);
  TpchRun run(f.get(), report, args.seed);

  if (!args.trace) {
    WindowMeter windows(report);
    const LoopResult r = run.Loop(args.seconds, /*need_cycle=*/true, nullptr,
                                  nullptr, &windows);
    report->Samples("read_ms", r.latency_ms);
    report->Set("tail_q", kTailQ);
    report->Set("sim_cost_per_query", run.SimCostPerQuery());
    report->Set("peak_rss_mb", PeakRssMb());
    return 0;
  }

  const LoopResult untraced =
      run.Loop(args.seconds / 2, true, nullptr, nullptr, nullptr);
  obs::TraceCollector collector(1u << 16);
  Tracer tracer(&collector, report);
  LayerTally tally;
  LoopResult traced;
  int threads_peak = 0;
  const BufferPoolStats pool0 = f->engine.pool().stats();
  {
    ThreadMonitor monitor;
    traced = run.Loop(args.seconds / 2, /*need_cycle=*/true, &tracer, &tally,
                      nullptr);
    threads_peak = monitor.peak();
  }
  const BufferPoolStats pool1 = f->engine.pool().stats();
  LeafProbes(f.get(), &tracer, tally, report);
  ParallelProbes(f.get(), &tracer, report);

  const double qps_untraced =
      static_cast<double>(untraced.queries) / untraced.seconds;
  const double qps_traced =
      static_cast<double>(traced.queries) / traced.seconds;
  report->Set("bench.trace_overhead_frac", 1.0 - qps_traced / qps_untraced);
  report->Set("exec.threads_peak", threads_peak);
  tally.storage.ReportTo(report, static_cast<double>(pool1.hits - pool0.hits),
                         static_cast<double>(pool1.misses - pool0.misses));
  if (!args.trace_path.empty() && !collector.ExportJsonFile(args.trace_path)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_path.c_str());
  }
  return 0;
}

}  // namespace perfbench
