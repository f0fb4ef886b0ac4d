// Concurrent multi-query differential testing: N queries submitted to the
// QueryEngine at once must produce exactly the multisets and the
// *bit-identical* per-query simulated costs of solo serial runs — across
// all five access paths and admitted-query caps 1, 2 and 8. Also covers the
// admission cap (a barrier proves 8 queries genuinely execute concurrently),
// the SLA priority lane, chooser reuse per stream query, the shared-pool
// mirror, the closed-loop workload driver and the percentile helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "engine/session.h"
#include "sharing/scan_sharing.h"
#include "workload/workload_driver.h"

namespace smoothscan {

/// Drives a QueryTicket's producer and consumer sides from one thread, so a
/// test can order push, cancel, finish and pop exactly.
class QueryTicketTestPeer {
 public:
  static void Push(QueryTicket* t, TupleBatch* b) { t->Push(b); }
  static bool Cancel(QueryTicket* t) { return t->Cancel(); }
  static void Finish(QueryTicket* t, QueryResult r) {
    t->Finish(std::move(r));
  }
  static bool Pop(QueryTicket* t, TupleBatch* out) { return t->Pop(out); }
  static QueryResult& Wait(QueryTicket* t) { return t->Wait(); }
};

namespace {

/// Per-query engine charges of one measured run.
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const QueryMetrics& m, const char* label) const {
    EXPECT_EQ(io.io_requests, m.io_requests) << label;
    EXPECT_EQ(io.random_ios, m.random_ios) << label;
    EXPECT_EQ(io.seq_ios, m.seq_ios) << label;
    EXPECT_EQ(io.pages_read, m.pages_read) << label;
    EXPECT_EQ(io.io_time, m.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, m.cpu_time) << label;        // Exact, not NEAR.
    EXPECT_EQ(tuples, m.tuples) << label;
  }
};

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest() {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 30000;
    spec.value_max = 4000;
    spec.seed = 17;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
  }

  std::multiset<int64_t> Oracle(const ScanPredicate& pred) const {
    std::multiset<int64_t> oracle;
    db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (pred.Matches(t)) oracle.insert(t[0].AsInt64());
    });
    return oracle;
  }

  /// The solo-run cost definition: serial path against the engine's own
  /// stack, cold, counters zeroed first (bit-identity is defined from a
  /// zeroed meter — see parallel_differential_test.cc).
  CostSnapshot SoloRun(const QuerySpec& spec) {
    engine_->ColdRestart();
    engine_->disk().ResetAll();
    engine_->cpu().Reset();
    std::unique_ptr<AccessPath> path =
        MakePath(spec.kind, spec.index, spec.predicate, spec.need_order,
                 spec.estimate);
    EXPECT_TRUE(path->Open().ok());
    CostSnapshot snap;
    TupleBatch batch;
    while (path->NextBatch(&batch)) snap.tuples += batch.size();
    path->Close();
    snap.io = engine_->disk().stats();
    snap.cpu = engine_->cpu().time();
    return snap;
  }

  QuerySpec Spec(PathKind kind, double selectivity,
                 uint64_t estimate = 0) const {
    QuerySpec spec;
    spec.index = &db_->index();
    spec.predicate = db_->PredicateForSelectivity(selectivity);
    spec.kind = kind;
    spec.estimate = estimate;
    spec.collect_keys = true;
    return spec;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

constexpr PathKind kPaths[] = {PathKind::kFullScan, PathKind::kIndexScan,
                               PathKind::kSortScan, PathKind::kSwitchScan,
                               PathKind::kSmoothScan};
constexpr double kSelectivities[] = {0.001, 0.05, 0.5};

TEST_F(ConcurrentEngineTest, ConcurrentCostsBitIdenticalToSoloRuns) {
  // The full spec matrix: 5 paths x 3 selectivities (Switch Scan gets an
  // underestimate so some executions actually switch).
  std::vector<QuerySpec> specs;
  std::vector<CostSnapshot> solo;
  std::vector<std::multiset<int64_t>> oracles;
  for (const PathKind kind : kPaths) {
    for (const double sel : kSelectivities) {
      specs.push_back(Spec(kind, sel, /*estimate=*/100));
      solo.push_back(SoloRun(specs.back()));
      oracles.push_back(Oracle(specs.back().predicate));
      ASSERT_EQ(solo.back().tuples, oracles.back().size());
    }
  }

  for (const uint32_t cap : {1u, 2u, 8u}) {
    QueryEngineOptions qeo;
    qeo.max_admitted = cap;
    QueryEngine qe(engine_.get(), qeo);
    Session session(&qe, {.max_outstanding = 32});

    // Everything in flight at once; admission interleaves the executions.
    std::vector<QueryHandle> handles;
    for (const QuerySpec& spec : specs) {
      handles.push_back(session.Query().FromSpec(spec).Submit());
    }
    for (size_t i = 0; i < handles.size(); ++i) {
      const QueryResult& result = handles[i].Wait();
      ASSERT_TRUE(result.status.ok());
      const std::multiset<int64_t> got(result.keys.begin(),
                                       result.keys.end());
      EXPECT_EQ(got, oracles[i]) << "spec " << i << " cap " << cap;
      solo[i].ExpectBitIdentical(result.metrics, PathKindToString(
          specs[i].kind));
    }
    EXPECT_LE(qe.peak_admitted(), cap);
    EXPECT_EQ(qe.completed(), specs.size());
  }
}

// A real rendezvous: 8 queries each block in their residual predicate until
// all 8 have started, which can only resolve if 8 queries are admitted
// concurrently — proving the cap is a true concurrency level, not just a
// queue bound. The barrier changes wall time only, never charges.
TEST_F(ConcurrentEngineTest, EightQueriesGenuinelyConcurrent) {
  constexpr uint32_t kN = 8;
  std::mutex mu;
  std::condition_variable cv;
  uint32_t waiting = 0;

  QueryEngineOptions qeo;
  qeo.max_admitted = kN;
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe, {.max_outstanding = kN});

  std::vector<QueryHandle> handles;
  for (uint32_t q = 0; q < kN; ++q) {
    QuerySpec spec = Spec(PathKind::kFullScan, 0.05);
    spec.collect_keys = false;
    spec.predicate.residual = [&](const Tuple&) {
      thread_local bool arrived = false;  // One rendezvous per executor.
      if (!arrived) {
        arrived = true;
        std::unique_lock<std::mutex> lock(mu);
        if (++waiting == kN) {
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return waiting == kN; });
        }
      }
      return true;
    };
    handles.push_back(session.Query().FromSpec(spec).Submit());
  }
  for (QueryHandle& h : handles) EXPECT_TRUE(h.Wait().status.ok());
  EXPECT_EQ(qe.peak_admitted(), kN);
}

TEST_F(ConcurrentEngineTest, SlaLaneJumpsTheBatchQueue) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;  // Serialize execution so admission order is visible.
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe);

  std::mutex mu;
  std::vector<int> start_order;
  std::atomic<bool> gate{false};
  std::atomic<bool> first_started{false};
  auto tagged = [&](int tag, QueryLane lane, bool hold) {
    QuerySpec spec = Spec(PathKind::kFullScan, 0.01);
    spec.collect_keys = false;
    spec.lane = lane;
    spec.predicate.residual = [&, tag, hold](const Tuple&) {
      thread_local int last_tag = -1;
      if (last_tag != tag) {
        last_tag = tag;
        {
          std::lock_guard<std::mutex> lock(mu);
          start_order.push_back(tag);
        }
        first_started.store(true);
        // The first query parks until every later query is queued, so lane
        // priority — not submission timing — decides what runs next.
        while (hold && !gate.load()) std::this_thread::yield();
      }
      return true;
    };
    return spec;
  };

  auto submit = [&](QuerySpec spec) {
    return session.Query().FromSpec(std::move(spec)).Submit();
  };
  std::vector<QueryHandle> handles;
  handles.push_back(submit(tagged(0, QueryLane::kBatch, /*hold=*/true)));
  // Only submit the contenders once query 0 is genuinely admitted and
  // running, so they demonstrably queue behind it.
  while (!first_started.load()) std::this_thread::yield();
  handles.push_back(submit(tagged(1, QueryLane::kBatch, false)));
  handles.push_back(submit(tagged(2, QueryLane::kBatch, false)));
  handles.push_back(submit(tagged(3, QueryLane::kSla, false)));
  gate.store(true);
  for (QueryHandle& h : handles) EXPECT_TRUE(h.Wait().status.ok());
  // Query 0 was running; the SLA query overtakes the two queued batch ones.
  ASSERT_EQ(start_order.size(), 4u);
  EXPECT_EQ(start_order[0], 0);
  EXPECT_EQ(start_order[1], 3);
  EXPECT_EQ(start_order[2], 1);
  EXPECT_EQ(start_order[3], 2);
}

TEST_F(ConcurrentEngineTest, ParallelLeafMatchesSoloParallelRun) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  const std::multiset<int64_t> oracle = Oracle(pred);

  // Solo parallel run: default merge into the zeroed engine stream.
  engine_->ColdRestart();
  engine_->disk().ResetAll();
  engine_->cpu().Reset();
  ParallelScanOptions po;
  po.dop = 2;
  auto solo_path =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), po);
  ASSERT_TRUE(solo_path->Open().ok());
  CostSnapshot solo;
  TupleBatch batch;
  while (solo_path->NextBatch(&batch)) solo.tuples += batch.size();
  solo_path->Close();
  solo.io = engine_->disk().stats();
  solo.cpu = engine_->cpu().time();

  // Same plan through the query engine, concurrently with itself.
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe);
  QuerySpec spec = Spec(PathKind::kFullScan, 0.3);
  spec.dop = 2;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(session.Query().FromSpec(spec).Submit());
  }
  for (QueryHandle& h : handles) {
    const QueryResult& result = h.Wait();
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.metrics.parallel);
    const std::multiset<int64_t> got(result.keys.begin(), result.keys.end());
    EXPECT_EQ(got, oracle);
    solo.ExpectBitIdentical(result.metrics, "parallel leaf");
  }
}

TEST_F(ConcurrentEngineTest, ChooserReusePerStreamQuery) {
  const TableStats honest =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  TableStats lying = honest;
  lying.CorruptScale(0.001);
  CostModelParams params;
  params.num_tuples = db_->heap().num_tuples();
  params.tuple_size =
      8192 / (db_->heap().num_tuples() / db_->heap().num_pages());
  const CostModel model(params);

  QueryEngine qe(engine_.get(), QueryEngineOptions());
  Session session(&qe);
  QuerySpec spec = Spec(PathKind::kFullScan, 0.9);
  spec.use_chooser = true;
  spec.cost_model = &model;

  // Honest statistics at 90% selectivity: the chooser picks the full scan.
  spec.stats = &honest;
  QueryResult result = session.Query().FromSpec(spec).Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.kind, PathKind::kFullScan);

  // Statistics lying 1000x low: an index-driven path looks cheap — the
  // mis-estimation trap the workload driver replays at stream scale.
  spec.stats = &lying;
  result = session.Query().FromSpec(spec).Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_NE(result.metrics.kind, PathKind::kFullScan);
  const std::multiset<int64_t> got(result.keys.begin(), result.keys.end());
  EXPECT_EQ(got, Oracle(spec.predicate));
}

/// One streamed query's rows, in arrival order, and its metrics.
struct StreamedRun {
  std::vector<int64_t> keys;     ///< Key column, in arrival order.
  std::multiset<int64_t> ids;    ///< Column 0 (the row id).
  QueryMetrics metrics;
};

StreamedRun RunStreamed(Session* session, const QuerySpec& spec) {
  StreamedRun run;
  QueryHandle h = session->Query().FromSpec(spec).Stream().Submit();
  TupleBatch batch;
  while (h.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.row(i);
      run.keys.push_back(t[MicroBenchDb::kIndexedColumn].AsInt64());
      run.ids.insert(t[0].AsInt64());
    }
  }
  const QueryResult& r = h.Wait();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  run.metrics = r.metrics;
  return run;
}

// Every ordered read comes back in key order, whatever plan it resolves to:
// each PathKind (Switch Scan with an estimate that fires and one that does
// not) at dop 0 and 2, and the chooser across the selectivity range. The
// rows are the unordered read's. A plan that lost the index order pays the
// posterior sort on the query's own stack: the serial unordered read's I/O,
// and more CPU.
TEST_F(ConcurrentEngineTest, OrderedReadsComeBackSortedOnEveryPlan) {
  const TableStats stats =
      TableStats::Compute(db_->heap(), MicroBenchDb::kIndexedColumn);
  CostModelParams params;
  params.num_tuples = db_->heap().num_tuples();
  params.tuple_size =
      8192 / (db_->heap().num_tuples() / db_->heap().num_pages());
  const CostModel model(params);
  QueryEngine qe(engine_.get(), QueryEngineOptions());
  Session session(&qe);

  const auto check = [&](QuerySpec spec, const std::string& label) {
    spec.collect_keys = false;
    const StreamedRun serial = RunStreamed(&session, spec);
    for (const uint32_t dop : {0u, 2u}) {
      const std::string at = label + " dop " + std::to_string(dop);
      spec.dop = dop;
      spec.need_order = false;
      const StreamedRun unordered = RunStreamed(&session, spec);
      spec.need_order = true;
      const StreamedRun ordered = RunStreamed(&session, spec);
      EXPECT_TRUE(std::is_sorted(ordered.keys.begin(), ordered.keys.end()))
          << at;
      EXPECT_EQ(ordered.ids, unordered.ids) << at;
      EXPECT_FALSE(ordered.metrics.parallel) << at;
      const PathKind kind = ordered.metrics.kind;
      if (kind != serial.metrics.kind || kind == PathKind::kSmoothScan) {
        continue;  // A different plan, or Smooth Scan's own ordered mode.
      }
      EXPECT_EQ(ordered.metrics.io_time, serial.metrics.io_time) << at;
      if (kind == PathKind::kIndexScan) {
        EXPECT_EQ(ordered.metrics.cpu_time, serial.metrics.cpu_time) << at;
      } else {
        EXPECT_GT(ordered.metrics.cpu_time, serial.metrics.cpu_time) << at;
      }
    }
  };

  for (const PathKind kind :
       {PathKind::kFullScan, PathKind::kIndexScan, PathKind::kSortScan,
        PathKind::kSmoothScan, PathKind::kSharedScan,
        PathKind::kCompressedScan}) {
    check(Spec(kind, 0.5), PathKindToString(kind));
  }
  // 15,000 qualifying rows: the switch fires past 10, never past 10^6.
  check(Spec(PathKind::kSwitchScan, 0.5, 10), "SwitchScan fired");
  check(Spec(PathKind::kSwitchScan, 0.5, 1000000), "SwitchScan unfired");
  for (const double sel : {0.0001, 0.01, 0.05, 0.5, 1.0}) {
    QuerySpec spec = Spec(PathKind::kSmoothScan, sel);
    spec.use_chooser = true;
    spec.stats = &stats;
    spec.cost_model = &model;
    check(spec, "chooser sel " + std::to_string(sel));
  }
}

TEST_F(ConcurrentEngineTest, MirrorPopulatesSharedPoolWithoutLeakingPins) {
  engine_->ColdRestart();
  ASSERT_EQ(engine_->pool().pinned_pages(), 0u);
  QueryEngine qe(engine_.get(), QueryEngineOptions());
  Session session(&qe);
  QuerySpec spec = Spec(PathKind::kFullScan, 0.2);
  spec.collect_keys = false;
  EXPECT_TRUE(session.Query().FromSpec(spec).Run().status.ok());
  // The query's pages landed in the shared pool (data-plane residency)...
  EXPECT_GT(engine_->pool().size(), 0u);
  // ...and every mirror pin was released with its guard.
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);

  // A morsel-driven query mirrors too: its per-morsel private pools all
  // carry the same shared mirror.
  engine_->ColdRestart();
  ASSERT_EQ(engine_->pool().size(), 0u);
  QuerySpec par = Spec(PathKind::kSmoothScan, 0.2);
  par.collect_keys = false;
  par.dop = 2;
  const QueryResult result = session.Query().FromSpec(par).Run();
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.metrics.parallel);
  EXPECT_GT(engine_->pool().size(), 0u);
  EXPECT_EQ(engine_->pool().pinned_pages(), 0u);
}

TEST_F(ConcurrentEngineTest, WorkloadDriverClosedLoopReport) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  QueryEngine qe(engine_.get(), qeo);
  WorkloadDriver driver(engine_.get(), db_.get(), &qe);

  WorkloadOptions wo;
  wo.clients = 3;
  wo.policy = DriverPolicy::kSmoothScan;
  wo.phases = WorkloadOptions::DriftingPhases(/*queries_per_phase=*/2);
  const WorkloadReport report = driver.Run(wo);

  EXPECT_EQ(report.queries, 3u * 3u * 2u);  // clients x phases x queries.
  EXPECT_EQ(report.path_counts[static_cast<int>(PathKind::kSmoothScan)],
            report.queries);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.tuples, 0u);
  EXPECT_GT(report.total_sim_time, 0.0);
  EXPECT_LE(report.p50_latency_ms, report.p95_latency_ms);
  EXPECT_LE(report.p95_latency_ms, report.p99_latency_ms);
  EXPECT_LE(report.p99_latency_ms, report.max_latency_ms);
  EXPECT_EQ(report.per_query.size(), report.queries);

  // Same stream, same policy: per-query simulated cost is reproducible even
  // though scheduling differs run to run.
  QueryEngine qe2(engine_.get(), qeo);
  WorkloadDriver driver2(engine_.get(), db_.get(), &qe2);
  const WorkloadReport again = driver2.Run(wo);
  EXPECT_EQ(again.total_sim_time, report.total_sim_time);  // Bit-identical.
}

TEST_F(ConcurrentEngineTest, CancelInQueueNeverRuns) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;  // One executor: the gated query blocks the lane.
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe, SessionOptions{});

  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  QuerySpec holder = Spec(PathKind::kFullScan, 0.01);
  holder.collect_keys = false;
  holder.predicate.residual = [&](const Tuple&) {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
    return true;
  };
  QueryHandle blocking =
      session.Query().FromSpec(std::move(holder)).Submit();
  while (!started.load()) std::this_thread::yield();

  // The victim sits in the batch lane behind the gated query; Cancel must
  // remove it unadmitted.
  std::atomic<uint64_t> victim_rows{0};
  QuerySpec victim_spec = Spec(PathKind::kFullScan, 0.5);
  victim_spec.collect_keys = false;
  victim_spec.predicate.residual = [&](const Tuple&) {
    victim_rows.fetch_add(1);
    return true;
  };
  QueryHandle victim =
      session.Query().FromSpec(std::move(victim_spec)).Submit();
  victim.Cancel();
  const QueryResult& cancelled = victim.Wait();
  gate.store(true);
  EXPECT_TRUE(blocking.Wait().status.ok());

  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.metrics.cancelled);
  // Never admitted: no execution wall time, no charges, not one tuple seen.
  EXPECT_EQ(cancelled.metrics.exec_ms, 0.0);
  EXPECT_EQ(cancelled.metrics.io_requests, 0u);
  EXPECT_EQ(cancelled.metrics.tuples, 0u);
  EXPECT_EQ(victim_rows.load(), 0u);
}

TEST_F(ConcurrentEngineTest, CancelMidExecutionDetachesSharedConsumer) {
  ScanSharingCoordinator coordinator(engine_.get());
  QueryEngineOptions qeo;
  qeo.max_admitted = 8;
  qeo.sharing = &coordinator;
  QueryEngine qe(engine_.get(), qeo);
  SessionOptions so;
  so.max_outstanding = 8;
  Session session(&qe, so);

  const ScanPredicate pred = db_->PredicateForSelectivity(0.4);
  const std::multiset<int64_t> oracle = Oracle(pred);

  // Eight consumers attach to one cooperative scan; the victim parks after
  // its first tuple so the cancel demonstrably lands mid-lap.
  std::atomic<bool> victim_started{false};
  std::atomic<bool> victim_release{false};
  std::vector<QueryHandle> peers;
  for (int i = 0; i < 7; ++i) {
    peers.push_back(session.Query()
                        .Table(&db_->index())
                        .Predicate(pred)
                        .Policy(PathKind::kSharedScan)
                        .CollectKeys()
                        .Submit());
  }
  QuerySpec victim_spec = Spec(PathKind::kSharedScan, 0.4);
  victim_spec.predicate.residual = [&](const Tuple&) {
    victim_started.store(true);
    while (!victim_release.load()) std::this_thread::yield();
    return true;
  };
  QueryHandle victim =
      session.Query().FromSpec(std::move(victim_spec)).Submit();
  while (!victim_started.load()) std::this_thread::yield();
  victim.Cancel();
  victim_release.store(true);

  const QueryResult& vr = victim.Wait();
  EXPECT_EQ(vr.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(vr.metrics.cancelled);
  // The Detach left the cooperative scan intact: all seven peers still
  // deliver the exact oracle multiset.
  for (QueryHandle& peer : peers) {
    const QueryResult& r = peer.Wait();
    ASSERT_TRUE(r.status.ok());
    const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
    EXPECT_EQ(got, oracle);
  }
}

TEST_F(ConcurrentEngineTest, SubmitCancelRaceSettlesEveryTicketOnce) {
  // Four threads submit rounds of queries, streamed and not, into one
  // executor and at once cancel most of them, latest first. Seeded spins
  // land the cancels in the queue, at admission, between batches and after
  // completion. Every query completes exactly once and no wait hangs. A
  // query cancelled before it ran has no I/O and no tuples; one that ran to
  // the end has the oracle multiset; one stopped between batches has
  // delivered a subset of it.
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;
  QueryEngine qe(engine_.get(), qeo);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  constexpr double kSels[] = {0.001, 0.05, 0.5};
  constexpr PathKind kKinds[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                 PathKind::kSmoothScan};
  std::vector<std::multiset<int64_t>> oracles;
  for (const double sel : kSels) {
    oracles.push_back(Oracle(db_->PredicateForSelectivity(sel)));
  }
  std::atomic<int> before_run{0}, mid_run{0}, finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      Session session(&qe);
      for (int submitted = 0; submitted < kPerThread;) {
        struct Sub {
          QueryHandle handle;
          size_t sel;
          bool streamed;
        };
        std::vector<Sub> round;
        for (int64_t n = rng.UniformInt(1, 4);
             n > 0 && submitted < kPerThread; --n, ++submitted) {
          const size_t sel = static_cast<size_t>(rng.UniformInt(0, 2));
          const bool streamed = rng.UniformInt(0, 1) == 1;
          round.push_back(
              {session.Query()
                   .Table(&db_->index())
                   .Predicate(db_->PredicateForSelectivity(kSels[sel]))
                   .Policy(kKinds[rng.UniformInt(0, 2)])
                   .CollectKeys(!streamed)
                   .Stream(streamed)
                   .Submit(),
               sel, streamed});
        }
        // A busy delay: a yield can hand the core away for a whole slice.
        std::atomic<int64_t> spin{rng.UniformInt(0, 1000000)};
        while (spin.fetch_sub(1, std::memory_order_relaxed) > 0) {
        }
        for (auto it = round.rbegin(); it != round.rend(); ++it) {
          if (rng.UniformInt(0, 3) != 0) it->handle.Cancel();
        }
        for (Sub& sub : round) {
          std::multiset<int64_t> got;
          TupleBatch batch;
          while (sub.handle.NextBatch(&batch)) {
            for (size_t r = 0; r < batch.size(); ++r) {
              got.insert(batch.row(r)[0].AsInt64());
            }
          }
          const QueryResult& res = sub.handle.Wait();
          if (!sub.streamed) got.insert(res.keys.begin(), res.keys.end());
          const std::multiset<int64_t>& oracle = oracles[sub.sel];
          if (res.status.ok()) {
            EXPECT_FALSE(res.metrics.cancelled);
            EXPECT_EQ(got, oracle);
            finished.fetch_add(1);
            continue;
          }
          ASSERT_EQ(res.status.code(), StatusCode::kCancelled);
          EXPECT_TRUE(res.metrics.cancelled);
          if (res.metrics.io_requests == 0 && res.metrics.tuples == 0) {
            EXPECT_TRUE(got.empty());
            before_run.fetch_add(1);
            continue;
          }
          // Stopped between batches: it delivered part of the answer.
          EXPECT_LE(got.size(), res.metrics.tuples);
          EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(),
                                    got.begin(), got.end()));
          mid_run.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(before_run + mid_run + finished, kThreads * kPerThread);
  EXPECT_EQ(qe.completed(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(before_run.load(), 0);
  EXPECT_GT(finished.load(), 0);
}

TEST(QueryTicketTest, CancelAfterTheLastPushKeepsTheQueuedStream) {
  // The late-cancel window: the executor pushed its last batch, a cancel
  // lands before it calls Finish, and the query still finishes OK. Its
  // stream must stay complete: the consumer pops every queued row. A push
  // after the cancel is dropped, and the consumer sees the end after it.
  using Peer = QueryTicketTestPeer;
  QueryTicket ticket(/*id=*/1, /*session=*/nullptr, /*streamed=*/true);
  TupleBatch batch;
  for (int64_t v = 0; v < 5; ++v) {
    if (v == 3) Peer::Push(&ticket, &batch);  // Batch {0, 1, 2}.
    *batch.AppendSlot() = Tuple{Value::Int64(v)};
  }
  Peer::Push(&ticket, &batch);  // Batch {3, 4}.
  EXPECT_TRUE(Peer::Cancel(&ticket));
  EXPECT_FALSE(Peer::Cancel(&ticket));  // Already cancelled.
  *batch.AppendSlot() = Tuple{Value::Int64(99)};
  Peer::Push(&ticket, &batch);  // After the cancel: dropped.
  EXPECT_TRUE(batch.empty());
  QueryResult result;
  result.metrics.tuples = 5;
  Peer::Finish(&ticket, std::move(result));

  std::vector<int64_t> got;
  TupleBatch out;
  while (Peer::Pop(&ticket, &out)) {
    for (size_t i = 0; i < out.size(); ++i) {
      got.push_back(out.row(i)[0].AsInt64());
    }
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  const QueryResult& res = Peer::Wait(&ticket);
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.metrics.tuples, got.size());
}

TEST(LatencyPercentileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(LatencyPercentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile({7.0}, 0.5), 7.0);
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 0.75), 3.0);
  EXPECT_DOUBLE_EQ(LatencyPercentile(v, 1.0), 4.0);
}

}  // namespace
}  // namespace smoothscan
