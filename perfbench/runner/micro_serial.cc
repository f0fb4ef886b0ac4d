// micro_serial: one closed-loop client streaming the paper's micro-benchmark
// queries through an in-process Session, serial operators only (dop 0).
//
// Why: with nothing contending, latency equals service time, so this
// workload isolates the access kernels and the storage decode/accounting
// below them, and bypasses parallel execution, the wire, writes and
// sharing. The table (400k tuples, ~4.1k pages) is 4x the 1,024-page
// buffer pool.
//
// The query list is a full factorial: 48 log-uniform selectivity strata
// (0.01%..100%) x ten variants — full, index, sort and smooth with the
// honest estimate, and switch and the cost-based chooser each over
// statistics corrupted by {1, 0.01, 0.001}. Each stratum's selectivity is
// drawn from the middle fifth of the stratum: a seeded draw that cannot
// straddle the chooser's full-vs-index boundary from one seed to the next,
// which would swing the run's mean simulated cost by a whole 100% index
// scan. Every eighth stratum forms one block of 60 queries, and the list is
// the blocks in seeded order, each shuffled. The loop replays the list until
// the time is up and at least one whole pass ran; whole passes are the
// throughput windows, since only a whole pass has the same mix every time:
// every query's simulated cost must repeat bit for bit, which makes
// sim_cost_per_query (the mean over one pass) exact, and the cheapest fixed
// path of each stratum gives every query's regret.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/session.h"
#include "harness.h"
#include "obs/metrics.h"
#include "plan/access_path_chooser.h"
#include "plan/table_stats.h"
#include "workload/micro_bench.h"

namespace perfbench {
namespace {

using namespace smoothscan;

constexpr uint64_t kTuples = 400000;
constexpr size_t kPoolPages = 1024;
constexpr size_t kStrata = 48;
constexpr size_t kBlocks = 8;  ///< Only spreads the mix along a pass.
constexpr double kSelLo = 1e-4;
constexpr double kSelHi = 1.0;
constexpr double kCorruptions[] = {1.0, 0.01, 0.001};
constexpr int kSetups = 9;
/// Tail percentile reported as read_tail_ms: a run completes several
/// hundred queries, so p95 has at least ten samples beyond it; p99 would not.
constexpr double kTailQ = 0.95;

constexpr PathKind kFixedKinds[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                    PathKind::kSortScan, PathKind::kSwitchScan,
                                    PathKind::kSmoothScan};
/// A query variant: a fixed path, or the chooser (kind unused), with the
/// statistics corruption its estimate comes from.
struct Variant {
  bool chooser = false;
  PathKind kind = PathKind::kFullScan;
  size_t corruption = 0;
};
constexpr Variant kVariants[] = {
    {false, PathKind::kFullScan, 0},   {false, PathKind::kIndexScan, 0},
    {false, PathKind::kSortScan, 0},   {false, PathKind::kSmoothScan, 0},
    {false, PathKind::kSwitchScan, 0}, {false, PathKind::kSwitchScan, 1},
    {false, PathKind::kSwitchScan, 2}, {true, PathKind::kFullScan, 0},
    {true, PathKind::kFullScan, 1},    {true, PathKind::kFullScan, 2}};

struct MicroQuery {
  size_t stratum = 0;
  Variant variant;
  ScanPredicate predicate;
  uint64_t expected = 0;  ///< Prefix-count oracle.
  uint64_t estimate = 0;  ///< Corrupted-statistics estimate.
};

EngineOptions MicroEngineOptions() {
  EngineOptions options;
  options.buffer_pool_pages = kPoolPages;
  return options;
}

MicroBenchSpec MicroSpec(uint64_t seed) {
  MicroBenchSpec spec;
  spec.num_tuples = kTuples;
  spec.seed = Rng(seed).Fork(1).Next();
  return spec;
}

struct Fixture {
  explicit Fixture(uint64_t seed)
      : engine(MicroEngineOptions()),
        db(&engine, MicroSpec(seed)),
        model(CostModelFor(engine, db.heap())) {
    const TableStats base =
        TableStats::Compute(db.heap(), MicroBenchDb::kIndexedColumn);
    for (const double factor : kCorruptions) {
      stats.push_back(base);
      stats.back().CorruptScale(factor);
    }
    // Prefix-count oracle over c2: prefix[x] = #tuples with c2 < x.
    prefix.assign(static_cast<size_t>(db.value_max()) + 2, 0);
    db.heap().ForEachDirect([&](Tid, const Tuple& t) {
      const int64_t c2 = t[MicroBenchDb::kIndexedColumn].AsInt64();
      ++prefix[static_cast<size_t>(c2) + 1];
    });
    for (size_t i = 1; i < prefix.size(); ++i) prefix[i] += prefix[i - 1];

    Rng rng(seed);
    std::vector<std::vector<MicroQuery>> blocks(kBlocks);
    for (size_t s = 0; s < kStrata; ++s) {
      const double middle_fifth = (2.0 + rng.UniformDouble()) / 5.0;
      const double sel =
          LogUniformInStratum(kSelLo, kSelHi, s, kStrata, middle_fifth);
      const ScanPredicate pred = db.PredicateForSelectivity(sel);
      for (const Variant& v : kVariants) {
        MicroQuery q;
        q.stratum = s;
        q.variant = v;
        q.predicate = pred;
        q.expected = Count(pred);
        q.estimate = stats[v.corruption].EstimateCardinality(pred.lo, pred.hi);
        blocks[s % kBlocks].push_back(q);
      }
    }
    Shuffle(&blocks, &rng);
    for (std::vector<MicroQuery>& block : blocks) {
      Shuffle(&block, &rng);
      queries.insert(queries.end(), block.begin(), block.end());
    }
  }

  uint64_t Count(const ScanPredicate& p) const {
    auto at = [&](int64_t x) {
      return prefix[static_cast<size_t>(std::clamp<int64_t>(
          x, 0, static_cast<int64_t>(prefix.size()) - 1))];
    };
    return p.hi <= p.lo ? 0 : at(p.hi) - at(p.lo);
  }

  Engine engine;
  MicroBenchDb db;
  CostModel model;
  std::vector<TableStats> stats;  ///< One per kCorruptions factor.
  std::vector<uint64_t> prefix;
  std::vector<MicroQuery> queries;
};

/// Per-layer tallies of a traced phase.
struct LayerTally {
  StorageTally storage;
  uint64_t path_counts[kNumPathKinds] = {};
};

struct LoopResult {
  uint64_t queries = 0;
  uint64_t rows = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;
};

class MicroRun {
 public:
  MicroRun(Fixture* f, Report* report)
      : f_(f),
        report_(report),
        cost_(f->queries.size(), std::numeric_limits<double>::quiet_NaN()) {}

  /// Closed loop for `seconds` (and, with `need_pass`, until one whole pass
  /// of the list ran since this call). `windows` (optional) gets a window
  /// per whole pass.
  LoopResult Loop(QueryEngine* qe, double seconds, bool need_pass,
                  Tracer* tracer, LayerTally* tally, WindowMeter* windows) {
    Session session(qe);
    LoopResult out;
    const size_t n = f_->queries.size();
    const uint64_t start_cursor = cursor_;
    const Clock::time_point t0 = Clock::now();
    while (SecondsSince(t0) < seconds ||
           (need_pass && cursor_ - start_cursor < n)) {
      const size_t j = static_cast<size_t>(cursor_ % n);
      const bool pass_start = cursor_ % n == 0;
      const uint64_t request = ++cursor_;
      if (pass_start && std::isnan(pass_communal_start_)) {
        pass_communal_start_ = f_->engine.TotalTime();
      }
      RunOne(&session, j, request, tracer, tally, &out);
      if (windows != nullptr && cursor_ % n == 0) {
        windows->Close(out.queries, out.rows);
      }
      if (cursor_ % n == 0 && std::isnan(pass_communal_)) {
        pass_communal_ = f_->engine.TotalTime() - pass_communal_start_;
      }
    }
    out.seconds = SecondsSince(t0);
    return out;
  }

  /// Mean simulated cost over one pass: per-query charges summed in list
  /// order plus the engine's communal stream during that pass.
  double SimCostPerQuery() const {
    double total = 0.0;
    for (const double c : cost_) total += c;
    return (total + pass_communal_) / static_cast<double>(cost_.size());
  }

  /// Each query's simulated cost over the cheapest fixed path of its
  /// stratum (same predicate).
  std::vector<double> Regrets() const {
    std::vector<double> best(kStrata, std::numeric_limits<double>::infinity());
    for (size_t j = 0; j < cost_.size(); ++j) {
      const MicroQuery& q = f_->queries[j];
      if (!q.variant.chooser) {
        best[q.stratum] = std::min(best[q.stratum], cost_[j]);
      }
    }
    std::vector<double> out;
    for (size_t j = 0; j < cost_.size(); ++j) {
      const double b = best[f_->queries[j].stratum];
      if (!std::isnan(cost_[j]) && b > 0.0 && std::isfinite(b)) {
        out.push_back(cost_[j] / b);
      }
    }
    return out;
  }

 private:
  void RunOne(Session* session, size_t j, uint64_t request, Tracer* tracer,
              LayerTally* tally, LoopResult* out) {
    const MicroQuery& q = f_->queries[j];
    uint64_t estimate = q.estimate;
    if (tracer != nullptr && q.variant.chooser) {
      Span span(tracer, request, "plan.choose");
      estimate = AccessPathChooser::Choose(f_->stats[q.variant.corruption],
                                           f_->model, q.predicate.lo,
                                           q.predicate.hi, /*need_order=*/false)
                     .estimated_cardinality;
    }
    const Clock::time_point t0 = Clock::now();
    uint64_t rows = 0;
    bool predicate_ok = true;
    QueryResult result;
    {
      Span span(tracer, request, "engine.query");
      QueryBuilder builder = session->Query();
      builder.Table(&f_->db.index()).Predicate(q.predicate).Stream();
      if (q.variant.chooser) {
        builder.UseChooser(&f_->stats[q.variant.corruption], &f_->model);
      } else {
        builder.Policy(q.variant.kind).Estimate(q.estimate);
      }
      QueryHandle handle = builder.Submit();
      TupleBatch batch;
      while (handle.NextBatch(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const int64_t key =
              batch.row(i)[MicroBenchDb::kIndexedColumn].AsInt64();
          predicate_ok = predicate_ok && q.predicate.MatchesKey(key);
        }
        rows += batch.size();
      }
      result = handle.Take();
    }
    out->latency_ms.push_back(MsBetween(t0, Clock::now()));
    ++out->queries;
    out->rows += rows;

    const QueryMetrics& m = result.metrics;
    std::string error;
    if (!result.status.ok()) {
      error = "query failed: " + result.status.ToString();
    } else if (!predicate_ok) {
      error = "streamed row outside the predicate";
    } else if (rows != q.expected || m.tuples != rows) {
      error = "row count " + std::to_string(rows) + " (DONE " +
              std::to_string(m.tuples) + "), oracle " +
              std::to_string(q.expected);
    } else if (std::isnan(cost_[j])) {
      cost_[j] = m.sim_time;
    } else if (cost_[j] != m.sim_time) {
      error = "simulated cost did not repeat";
    }
    report_->Record(error);

    if (tally == nullptr) return;
    tally->storage.Add(m.pages_read, m.random_ios, m.seq_ios, m.io_time,
                       m.sim_time);
    ++tally->path_counts[static_cast<int>(m.kind)];
    report_->Sample("engine.queue_wait_ms", m.queue_wait_ms);
    report_->Sample("engine.exec_ms", m.exec_ms);
    report_->Sample("plan.qerror",
                    QError(static_cast<double>(estimate),
                           static_cast<double>(rows)));
  }

  Fixture* f_;
  Report* report_;
  std::vector<double> cost_;  ///< Per list entry; NaN until first run.
  uint64_t cursor_ = 0;       ///< Queries sent so far (list position).
  double pass_communal_start_ = std::numeric_limits<double>::quiet_NaN();
  double pass_communal_ = std::numeric_limits<double>::quiet_NaN();
};

/// Direct MakePath probes: each fixed path at 0.1%, 10% and 100%, cold,
/// with spans around Open, the NextBatch loop and Close.
void AccessProbes(Fixture* f, Tracer* tracer, Report* report) {
  constexpr double kSels[] = {0.001, 0.1, 1.0};
  constexpr int kReps = 3;
  uint64_t request = 1u << 30;
  for (const PathKind kind : kFixedKinds) {
    double open_us = 0.0, drain_ns = 0.0, wall_us = 0.0, sim = 0.0;
    uint64_t rows = 0, produced = 0, inspected = 0, pages = 0;
    for (const double sel : kSels) {
      const ScanPredicate pred = f->db.PredicateForSelectivity(sel);
      const uint64_t expected = f->Count(pred);
      struct Probe {
        double open_us, drain_ns, wall_us;
      };
      std::vector<Probe> reps;
      double rep_sim = 0.0;
      uint64_t rep_pages = 0;
      AccessPathStats rep_stats;
      for (int rep = 0; rep < kReps; ++rep) {
        f->engine.ColdRestart();
        const IoStats io0 = f->engine.disk().stats();
        const double sim0 = f->engine.TotalTime();
        std::unique_ptr<AccessPath> path =
            MakePath(kind, &f->db.index(), pred, false, expected);
        ++request;
        const Clock::time_point t0 = Clock::now();
        Status st;
        {
          Span span(tracer, request, "access.open");
          st = path->Open();
        }
        const Clock::time_point t1 = Clock::now();
        uint64_t n = 0;
        bool predicate_ok = true;
        {
          Span span(tracer, request, "access.drain");
          TupleBatch batch;
          while (st.ok() && path->NextBatch(&batch)) {
            for (size_t i = 0; i < batch.size(); ++i) {
              const int64_t key = batch.row(i)[pred.column].AsInt64();
              predicate_ok = predicate_ok && pred.MatchesKey(key);
            }
            n += batch.size();
          }
        }
        const Clock::time_point t2 = Clock::now();
        rep_stats = path->stats();
        {
          Span span(tracer, request, "access.close");
          path->Close();
        }
        const Clock::time_point t3 = Clock::now();
        rep_sim = f->engine.TotalTime() - sim0;
        rep_pages = (f->engine.disk().stats() - io0).pages_read;
        std::string error;
        if (!st.ok()) {
          error = std::string(PathKindToString(kind)) +
                  " probe Open failed: " + st.ToString();
        } else if (!predicate_ok || n != expected) {
          error = std::string(PathKindToString(kind)) + " probe produced " +
                  std::to_string(n) + ", oracle " + std::to_string(expected);
        }
        report->Record(error);
        reps.push_back({MsBetween(t0, t1) * 1e3, MsBetween(t1, t2) * 1e6,
                        MsBetween(t0, t3) * 1e3});
      }
      std::sort(reps.begin(), reps.end(), [](const Probe& a, const Probe& b) {
        return a.wall_us < b.wall_us;
      });
      const Probe& median = reps[reps.size() / 2];
      open_us += median.open_us / static_cast<double>(std::size(kSels));
      drain_ns += median.drain_ns;
      wall_us += median.wall_us;
      sim += rep_sim;
      rows += expected;
      pages += rep_pages;
      produced += rep_stats.tuples_produced;
      inspected += rep_stats.tuples_inspected;
    }
    const std::string k = std::string("access.") + KindName(kind);
    report->Set(k + ".open_us", open_us);
    report->Set(k + ".drain_ns_per_row", drain_ns / static_cast<double>(rows));
    report->Set(k + ".wall_over_sim", wall_us / sim);
    report->Set(k + ".useful_frac", inspected == 0 ? 0.0
                                        : static_cast<double>(produced) /
                                              static_cast<double>(inspected));
    report->Set(k + ".pages_per_row",
                static_cast<double>(pages) / static_cast<double>(rows));
  }
}

QueryEngineOptions SerialEngineOptions() {
  QueryEngineOptions options;
  options.max_admitted = 1;
  return options;
}

}  // namespace

int RunMicroSerial(const Args& args, Report* report) {
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      kSetups, report, [&] { return std::make_unique<Fixture>(args.seed); });
  std::fprintf(stderr,
               "micro_serial: %llu tuples, %zu pages, pool %zu pages, %zu "
               "queries per pass\n",
               static_cast<unsigned long long>(f->db.heap().num_tuples()),
               f->db.heap().num_pages(), kPoolPages, f->queries.size());
  MicroRun run(f.get(), report);

  if (!args.trace) {
    LoopResult r;
    {
      QueryEngine qe(&f->engine, SerialEngineOptions());
      WindowMeter windows(report);
      r = run.Loop(&qe, args.seconds, /*need_pass=*/true, nullptr, nullptr,
                   &windows);
    }
    report->Samples("read_ms", r.latency_ms);
    report->Set("tail_q", kTailQ);
    report->Set("sim_cost_per_query", run.SimCostPerQuery());
    report->Set("peak_rss_mb", PeakRssMb());
    return 0;
  }

  // Traced: the first half untraced (the trace-overhead baseline), the
  // second with the engine's registry and trace collector on and spans
  // around every call; then the direct access-path probes.
  LoopResult untraced;
  {
    QueryEngine qe(&f->engine, SerialEngineOptions());
    untraced = run.Loop(&qe, args.seconds / 2, /*need_pass=*/true, nullptr,
                        nullptr, nullptr);
  }
  obs::TraceCollector collector(1u << 16);
  obs::MetricsRegistry registry;
  Tracer tracer(&collector, report);
  LayerTally tally;
  LoopResult traced;
  uint32_t admitted_peak = 0;
  {
    QueryEngineOptions options = SerialEngineOptions();
    options.metrics = &registry;
    options.tracing = &collector;
    QueryEngine qe(&f->engine, options);
    traced = run.Loop(&qe, args.seconds / 2, /*need_pass=*/false, &tracer,
                      &tally, nullptr);
    admitted_peak = qe.peak_admitted();
  }
  AccessProbes(f.get(), &tracer, report);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const double qps_untraced =
      static_cast<double>(untraced.queries) / untraced.seconds;
  const double qps_traced =
      static_cast<double>(traced.queries) / traced.seconds;
  report->Set("bench.trace_overhead_frac", 1.0 - qps_traced / qps_untraced);
  report->Set("engine.admitted_peak", admitted_peak);
  for (int k = 0; k < kNumPathKinds; ++k) {
    report->Set(std::string("plan.path.") + KindName(static_cast<PathKind>(k)),
                static_cast<double>(tally.path_counts[k]));
  }
  const double smooth_queries = std::max<double>(
      1.0, static_cast<double>(
               tally.path_counts[static_cast<int>(PathKind::kSmoothScan)]));
  report->Set("access.smooth.region_grows",
              snap.Value("smooth.region_grows") / smooth_queries);
  report->Set("access.smooth.page_cache_hits",
              snap.Value("smooth.page_cache_hits") / smooth_queries);
  report->Samples("access.regret", run.Regrets());
  tally.storage.ReportTo(report, snap.Value("bufferpool.hits"),
                         snap.Value("bufferpool.misses"));
  if (!args.trace_path.empty() && !collector.ExportJsonFile(args.trace_path)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_path.c_str());
  }
  return 0;
}

}  // namespace perfbench
