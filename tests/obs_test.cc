// Observability-plane testing: the unified MetricsRegistry, the per-query
// trace subsystem, and — the PR's hard invariant — the differential proof
// that simulated per-query cost is *bit-identical* with observability on or
// off, across all five access paths, DOPs 0/2/8 and admission caps 1/2/8.
// Also checks that each owner adds its own stats to the registry exactly
// once (query and morsel buffer pools, the shared pool's communal traffic,
// batch pools, SmoothScan and its Result Cache, engine completions), pins
// the ring's drop-oldest overflow semantics, and gates the enabled emission
// hot path (and every disabled helper) on zero heap allocations with a
// counting global allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "access/parallel_scan.h"
#include "access/smooth_scan.h"
#include "engine/session.h"
#include "mem/batch_pool.h"
#include "mem/memory_broker.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sharing/scan_sharing.h"
#include "workload/workload_driver.h"
#include "write/table_version.h"
#include "write/table_writer.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// Counting global allocator (the mem_governance_test idiom): the
// near-zero-cost-disabled and allocation-free-emission claims are checked
// against the real allocator, not a proxy.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace smoothscan {
namespace {

uint64_t AllocCount() { return g_heap_allocs.load(std::memory_order_relaxed); }

size_t CountSubstr(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, CounterSumsAcrossThreads) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.Add(42);
  EXPECT_EQ(c.value(), kThreads * kPerThread + 42);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, HistogramLogBuckets) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);

  obs::Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // Empty.
  for (uint64_t v : {1, 1, 1, 100, 100, 100, 100, 100, 100, 10000}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 3 + 600 + 10000u);
  // Nearest rank: p20 lands in the bucket of 1, p50/p90 in the bucket of
  // 100, p100 in the bucket of 10000 — quantiles report the bucket's upper
  // bound, so they are coarse but monotone.
  EXPECT_EQ(h.ValueAtQuantile(0.2), obs::Histogram::BucketUpperBound(1));
  EXPECT_EQ(h.ValueAtQuantile(0.5),
            obs::Histogram::BucketUpperBound(obs::Histogram::BucketOf(100)));
  EXPECT_LE(h.ValueAtQuantile(0.5), h.ValueAtQuantile(0.99));
}

TEST(MetricsTest, RegistryHandlesAreStableAndDeduped) {
  obs::MetricsRegistry r;
  obs::Counter* a = r.counter("x.count");
  obs::Counter* b = r.counter("x.count");
  EXPECT_EQ(a, b);  // Same name, same handle.
  // Registration churn must not invalidate handed-out pointers.
  for (int i = 0; i < 100; ++i) {
    r.counter("churn." + std::to_string(i));
  }
  a->Add(3);
  EXPECT_EQ(r.counter("x.count")->value(), 3u);
  EXPECT_EQ(r.num_metrics(), 101u);  // x.count deduped + 100 churn.
}

TEST(MetricsTest, SnapshotFlattensAndSorts) {
  obs::MetricsRegistry r;
  r.counter("c")->Add(5);
  r.gauge("g")->Set(-2);
  r.histogram("h")->Record(100);
  const obs::MetricsSnapshot snap = r.Snapshot();
  EXPECT_TRUE(snap.Has("c"));
  EXPECT_EQ(snap.Value("c"), 5.0);
  EXPECT_EQ(snap.Value("g"), -2.0);
  // Histograms flatten into count/sum/p50/p95/p99.
  EXPECT_EQ(snap.Value("h.count"), 1.0);
  EXPECT_EQ(snap.Value("h.sum"), 100.0);
  EXPECT_TRUE(snap.Has("h.p50"));
  EXPECT_TRUE(snap.Has("h.p95"));
  EXPECT_TRUE(snap.Has("h.p99"));
  EXPECT_FALSE(snap.Has("h"));
  EXPECT_EQ(snap.Value("missing", 123.0), 123.0);
  // Sorted by name, so reports are stable run to run.
  for (size_t i = 1; i < snap.values.size(); ++i) {
    EXPECT_LT(snap.values[i - 1].name, snap.values[i].name);
  }
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, RingDropsOldestDeterministically) {
  obs::TraceRing ring(/*tid=*/1, /*capacity=*/4);
  for (int64_t i = 0; i < 10; ++i) {
    obs::TraceEvent e;
    e.ts_us = static_cast<uint64_t>(i);
    e.name = "e";
    e.k0 = "i";
    e.v0 = i;
    ring.Push(e);
  }
  const obs::TraceRing::Drained d = ring.Snapshot();
  EXPECT_EQ(d.recorded, 10u);
  EXPECT_EQ(d.dropped, 6u);
  ASSERT_EQ(d.events.size(), 4u);
  // Exactly the newest four survive, oldest → newest.
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(d.events[static_cast<size_t>(i)].v0, 6 + i);
  }
}

TEST(TraceTest, ExportBalancesSpansAndMarksOverflow) {
  obs::TraceCollector tc(/*ring_capacity=*/8);
  tc.Begin(1, "query", "lane", 0);
  tc.Begin(1, "scan");
  tc.Instant(1, "morph_grow", "region_pages", 4, "local_sel_ppm", 100,
             "global_sel_ppm", 50, "policy", "elastic");
  tc.End(1, "scan");
  // "query" is left open; 30 instants overflow the 8-slot ring so its Begin
  // is overwritten too. Export must still balance.
  for (int i = 0; i < 30; ++i) tc.Instant(1, "filler", "i", i);
  const std::string json = tc.ExportJson();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("smoothscanMeta"), std::string::npos);
  EXPECT_NE(json.find("ring_overflow"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\""), std::string::npos);
  // Balance repair: every B has an E (possibly synthetic), no orphan E.
  EXPECT_EQ(CountSubstr(json, "\"ph\":\"B\""), CountSubstr(json, "\"ph\":\"E\""));
}

TEST(TraceTest, ExportCarriesSpanTreeAndPayloads) {
  obs::TraceCollector tc;
  tc.Instant(3, "submit", nullptr, 0, nullptr, 0, nullptr, 0, "lane",
             "batch");
  tc.Begin(3, "query", "lane", 0, "queue_us", 12);
  tc.Begin(3, "scan", "kind", 4);
  tc.Instant(3, "morph_trigger", "cardinality", 99, "region_pages", 2,
             nullptr, 0, "trigger", "eager");
  tc.End(3, "scan");
  tc.End(3, "query");
  const std::string json = tc.ExportJson();
  EXPECT_EQ(CountSubstr(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(CountSubstr(json, "\"ph\":\"E\""), 2u);
  EXPECT_NE(json.find("\"qid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"eager\""), std::string::npos);
  EXPECT_NE(json.find("\"cardinality\":99"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_EQ(tc.num_rings(), 1u);
}

TEST(TraceTest, ConcurrentEmissionAndExportAreClean) {
  // TSan coverage: worker threads hammer rings (and one shared counter)
  // while another thread exports mid-stream. Correctness here is "no race,
  // no crash, every event accounted"; the ctest TSan job runs this test.
  obs::TraceCollector tc(/*ring_capacity=*/64);
  obs::Counter c;
  constexpr int kThreads = 4;
  constexpr int kEvents = 2000;
  std::atomic<bool> exporting{true};
  std::thread exporter([&] {
    while (exporting.load(std::memory_order_relaxed)) {
      (void)tc.ExportJson();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tc, &c, t] {
      for (int i = 0; i < kEvents; ++i) {
        obs::TraceSpan span(&tc, static_cast<uint64_t>(t + 1), "morsel",
                            "morsel_index", i);
        c.Add();
        tc.Instant(static_cast<uint64_t>(t + 1), "filler", "i", i);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  exporting.store(false, std::memory_order_relaxed);
  exporter.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(tc.num_rings(), static_cast<size_t>(kThreads));
}

TEST(TraceTest, EmissionHotPathIsAllocationFree) {
  obs::TraceCollector tc;
  obs::MetricsRegistry r;
  obs::Counter* counter = r.counter("gate.counter");
  obs::Histogram* hist = r.histogram("gate.hist");
  obs::ObsContext octx;
  octx.metrics = &r;
  octx.trace = &tc;
  octx.query_id = 1;
  // First emission registers this thread's ring (allocates once).
  tc.Instant(1, "warmup");

  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    // Enabled paths: ring pushes and atomic bumps, POD payloads only.
    obs::TraceSpan span(&tc, 1, "scan", "kind", 4);
    tc.Instant(1, "morph_grow", "region_pages", i, "local_sel_ppm", 10,
               "global_sel_ppm", 5, "policy", "elastic");
    counter->Add();
    hist->Record(static_cast<uint64_t>(i));
    // Disabled paths: null short-circuits before any work.
    obs::EmitInstant(nullptr, "never", "k", 1);
    obs::TraceSpan off(nullptr, 0, "never");
  }
  EXPECT_EQ(AllocCount(), before);
}

// ----------------------------------------------- engine-level differential

/// The PR's hard invariant, as a matrix: per-query simulated cost and result
/// sizes from an engine WITHOUT observability must be bit-identical to the
/// same specs through an engine WITH a registry + collector attached — for
/// every access path, serial and parallel, at every admission cap.
TEST(ObsDifferentialTest, SimCostBitIdenticalWithObservabilityOnOrOff) {
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec dbspec;
  dbspec.num_tuples = 20000;
  dbspec.value_max = 4000;
  dbspec.seed = 17;
  MicroBenchDb db(&engine, dbspec);

  constexpr PathKind kPaths[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                 PathKind::kSortScan, PathKind::kSwitchScan,
                                 PathKind::kSmoothScan};
  constexpr uint32_t kDops[] = {0, 2, 8};
  std::vector<QuerySpec> specs;
  for (const PathKind kind : kPaths) {
    for (const uint32_t dop : kDops) {
      QuerySpec spec;
      spec.index = &db.index();
      spec.predicate = db.PredicateForSelectivity(0.05);
      spec.kind = kind;
      spec.estimate = 100;  // Underestimate: Switch Scan actually switches.
      spec.dop = dop;
      specs.push_back(spec);
    }
  }

  for (const uint32_t cap : {1u, 2u, 8u}) {
    QueryEngineOptions off;
    off.max_admitted = cap;

    QueryEngineOptions on = off;
    obs::MetricsRegistry registry;
    obs::TraceCollector collector;
    on.metrics = &registry;
    on.tracing = &collector;

    std::vector<QueryMetrics> baseline;
    {
      QueryEngine qe(&engine, off);
      Session session(&qe, {.max_outstanding = 32});
      std::vector<QueryHandle> handles;
      for (const QuerySpec& spec : specs) {
        handles.push_back(session.Query().FromSpec(spec).Submit());
      }
      for (QueryHandle& h : handles) {
        const QueryResult& res = h.Wait();
        ASSERT_TRUE(res.status.ok());
        baseline.push_back(res.metrics);
      }
    }
    {
      QueryEngine qe(&engine, on);
      Session session(&qe, {.max_outstanding = 32});
      std::vector<QueryHandle> handles;
      for (const QuerySpec& spec : specs) {
        handles.push_back(session.Query().FromSpec(spec).Submit());
      }
      for (size_t i = 0; i < handles.size(); ++i) {
        const QueryResult& res = handles[i].Wait();
        ASSERT_TRUE(res.status.ok());
        const QueryMetrics& a = baseline[i];
        const QueryMetrics& b = res.metrics;
        const std::string label =
            std::string(PathKindToString(specs[i].kind)) + " dop " +
            std::to_string(specs[i].dop) + " cap " + std::to_string(cap);
        EXPECT_EQ(a.io_time, b.io_time) << label;    // Exact, not NEAR.
        EXPECT_EQ(a.cpu_time, b.cpu_time) << label;  // Exact, not NEAR.
        EXPECT_EQ(a.sim_time, b.sim_time) << label;
        EXPECT_EQ(a.io_requests, b.io_requests) << label;
        EXPECT_EQ(a.random_ios, b.random_ios) << label;
        EXPECT_EQ(a.seq_ios, b.seq_ios) << label;
        EXPECT_EQ(a.pages_read, b.pages_read) << label;
        EXPECT_EQ(a.tuples, b.tuples) << label;
      }
    }
    // The traced run actually observed something.
    EXPECT_EQ(static_cast<uint64_t>(
                  registry.Snapshot().Value("engine.completed")),
              specs.size());
  }
}

// ----------------------------------------------------- reconciliation

/// Each owner adds its own stats to the registry once — these run the real
/// owners (queries, parallel scans, SmoothScan) against one registry.
class FoldTest : public ::testing::Test {
 protected:
  FoldTest() : engine_(PoolOptions()), db_(&engine_, DbSpec()) {
    obs_.metrics = &registry_;
  }

  static EngineOptions PoolOptions() {
    EngineOptions eo;
    eo.buffer_pool_pages = 256;
    return eo;
  }
  static MicroBenchSpec DbSpec() {
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    return spec;
  }
  uint64_t Count(const char* name) const {
    return static_cast<uint64_t>(registry_.Snapshot().Value(name));
  }
  QuerySpec Read(PathKind kind, double selectivity) const {
    QuerySpec spec;
    spec.index = &db_.index();
    spec.predicate = db_.PredicateForSelectivity(selectivity);
    spec.kind = kind;
    return spec;
  }

  Engine engine_;
  MicroBenchDb db_;
  obs::MetricsRegistry registry_;
  obs::ObsContext obs_;
};

TEST_F(FoldTest, QueryPoolsAddEveryColdMissOnceSerialAndParallel) {
  // A cold FullScan misses every heap page exactly once, in the query's
  // private pool (serial) or across the planning and morsel pools (dop 2);
  // the shared pool only sees unaccounted mirror pins. Each completed query
  // therefore adds exactly the heap's page count to bufferpool.misses.
  QueryEngineOptions qeo;
  qeo.metrics = &registry_;
  QueryEngine qe(&engine_, qeo);
  Session session(&qe);
  uint64_t expected = 0;
  for (const uint32_t dop : {0u, 2u}) {
    engine_.ColdRestart();
    QuerySpec spec = Read(PathKind::kFullScan, 0.3);
    spec.dop = dop;
    const QueryResult res = session.Query().FromSpec(spec).Run();
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.metrics.parallel, dop > 0);
    expected += db_.heap().num_pages();
    EXPECT_EQ(Count("bufferpool.misses"), expected) << "dop " << dop;
  }
}

TEST_F(FoldTest, SharedScanAddsCommunalTraffic) {
  // A shared scan's chunks are fetched through the engine's shared pool,
  // not the consumer's private one: the engine adds that communal traffic
  // at each completion.
  ScanSharingCoordinator sharing(&engine_);
  engine_.ColdRestart();
  const BufferPoolStats before = engine_.pool().stats();
  {
    QueryEngineOptions qeo;
    qeo.metrics = &registry_;
    qeo.sharing = &sharing;
    QueryEngine qe(&engine_, qeo);
    Session session(&qe);
    const QueryResult res =
        session.Query().FromSpec(Read(PathKind::kSharedScan, 0.3)).Run();
    ASSERT_TRUE(res.status.ok());
    ASSERT_EQ(res.metrics.kind, PathKind::kSharedScan);
    EXPECT_GT(Count("bufferpool.misses"), 0u);
  }
  const BufferPoolStats after = engine_.pool().stats();
  EXPECT_EQ(Count("bufferpool.misses"), after.misses - before.misses);
  EXPECT_EQ(Count("bufferpool.hits"), after.hits - before.hits);
}

TEST_F(FoldTest, FlushWriteBacksAddUpOnceTheEngineIsDestroyed) {
  TableVersionRegistry versions(&engine_);
  TableWriter writer(db_.mutable_heap(),
                     std::vector<BPlusTree*>{db_.mutable_index()}, &versions);
  const BufferPoolStats before = engine_.pool().stats();
  {
    QueryEngineOptions qeo;
    qeo.metrics = &registry_;
    qeo.versions = &versions;
    QueryEngine qe(&engine_, qeo);
    Session session(&qe);
    QuerySpec spec;
    spec.writer = &writer;
    const size_t columns = db_.heap().schema().num_columns();
    for (int i = 0; i < 200; ++i) {
      Tuple t(columns);
      for (size_t c = 0; c < columns; ++c) t[c] = Value::Int64(9000000 + i);
      spec.write_ops.push_back(WriteOp::MakeInsert(std::move(t)));
    }
    ASSERT_TRUE(session.Query().FromSpec(std::move(spec)).Run().status.ok());
    // The publish left dirty pages in the shared pool; flushing them is
    // communal traffic that no query completion covers.
    engine_.pool().FlushAll();
  }
  const uint64_t write_backs =
      engine_.pool().stats().write_backs - before.write_backs;
  EXPECT_GT(write_backs, 0u);
  EXPECT_EQ(Count("bufferpool.write_backs"), write_backs);
}

TEST_F(FoldTest, QueryAddsItsBatchPoolStatsAtCompletion) {
  // Each read query owns one batch pool and adds its stats once, after the
  // path closed: every batch the query acquired is home by then. The
  // engine's own pool is not touched by queries.
  QueryEngineOptions qeo;
  qeo.metrics = &registry_;
  QueryEngine qe(&engine_, qeo);
  Session session(&qe);
  const BatchPoolStats engine_before = engine_.batch_pool().stats();
  QuerySpec spec = Read(PathKind::kFullScan, 0.5);
  spec.dop = 2;
  const QueryResult par = session.Query().FromSpec(spec).Run();
  ASSERT_TRUE(par.status.ok());
  ASSERT_TRUE(par.metrics.parallel);
  const uint64_t par_acquires = Count("batchpool.acquires");
  EXPECT_GT(par_acquires, 0u);
  EXPECT_EQ(Count("batchpool.releases"), par_acquires);
  EXPECT_EQ(Count("batchpool.sheds"), 0u);
  // A serial Smooth Scan's spill batches come from the query's pool too.
  const QueryResult smooth =
      session.Query().FromSpec(Read(PathKind::kSmoothScan, 1.0)).Run();
  ASSERT_TRUE(smooth.status.ok());
  ASSERT_FALSE(smooth.metrics.parallel);
  EXPECT_GT(Count("batchpool.acquires"), par_acquires);
  EXPECT_EQ(Count("batchpool.releases"), Count("batchpool.acquires"));
  EXPECT_EQ(engine_.batch_pool().stats().acquires, engine_before.acquires);
}

TEST_F(FoldTest, OrderedSmoothScanAddsResultCacheStats) {
  SmoothScanOptions so;
  so.preserve_order = true;
  so.result_cache_budget = 64;  // Small enough to spill and restore.
  SmoothScan path(&db_.index(), db_.PredicateForSelectivity(0.3), so);
  path.SetObs(&obs_);
  ASSERT_TRUE(path.Open().ok());
  TupleBatch batch;
  while (path.NextBatch(&batch)) {
  }
  path.Close();
  path.Close();  // Idempotent: the cycle is added once.
  const SmoothScanStats& ss = path.smooth_stats();
  EXPECT_GT(ss.rc_spills, 0u);
  EXPECT_GT(ss.rc_restores, 0u);
  EXPECT_EQ(Count("rc.spills"), ss.rc_spills);
  EXPECT_EQ(Count("rc.pressure_spills"), ss.rc_pressure_spills);
  EXPECT_EQ(Count("rc.restores"), ss.rc_restores);
  EXPECT_EQ(Count("smooth.region_grows"), ss.expansions);
}

TEST_F(FoldTest, InQueueCancelCountsAsCompleted) {
  QueryEngineOptions qeo;
  qeo.max_admitted = 1;  // One executor: the gated query blocks the lane.
  qeo.metrics = &registry_;
  QueryEngine qe(&engine_, qeo);
  Session session(&qe);

  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  QuerySpec holder = Read(PathKind::kFullScan, 0.01);
  holder.predicate.residual = [&](const Tuple&) {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
    return true;
  };
  QueryHandle blocking = session.Query().FromSpec(std::move(holder)).Submit();
  while (!started.load()) std::this_thread::yield();

  QueryHandle victim =
      session.Query().FromSpec(Read(PathKind::kFullScan, 0.5)).Submit();
  victim.Cancel();
  EXPECT_EQ(victim.Wait().status.code(), StatusCode::kCancelled);
  gate.store(true);
  EXPECT_TRUE(blocking.Wait().status.ok());

  EXPECT_EQ(qe.completed(), 2u);
  EXPECT_EQ(Count("engine.completed"), qe.completed());
  EXPECT_EQ(Count("engine.cancelled"), 1u);
}

// ------------------------------------------------- end-to-end timeline

TEST(MorphTimelineTest, TracedSmoothScanEmitsMorphInstants) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec dbspec;
  dbspec.num_tuples = 20000;
  MicroBenchDb db(&engine, dbspec);

  obs::MetricsRegistry registry;
  obs::TraceCollector collector;
  QueryEngineOptions qeo;
  qeo.metrics = &registry;
  qeo.tracing = &collector;
  {
    QueryEngine qe(&engine, qeo);
    Session session(&qe);
    QuerySpec spec;
    spec.index = &db.index();
    spec.predicate = db.PredicateForSelectivity(0.4);
    spec.kind = PathKind::kSmoothScan;
    ASSERT_TRUE(session.Query().FromSpec(spec).Run().status.ok());
  }
  const std::string json = collector.ExportJson();
  // The full query span tree plus the morph timeline, with policy payloads.
  // The engine builds the paper-preferred eager trigger, so morphing is on
  // from the first tuple and the timeline shows the *region* adapting: at
  // 40% selectivity nearly every region has results and the elastic policy
  // keeps growing it, so morph_grow instants are guaranteed.
  EXPECT_NE(json.find("\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"smooth_open\""), std::string::npos);
  EXPECT_NE(json.find("\"morph_grow\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\""), std::string::npos);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.Value("smooth.region_grows"), 1.0);
}

// Every morsel scan of a parallel Smooth Scan opens with its seed: the
// smooth_open instant carries the region size the morsel starts from. Morsel
// 0 starts like the serial operator (one page); at 100% selectivity the
// prolog's dry run has grown the region by the time later morsels start.
TEST(MorphTimelineTest, ParallelSmoothOpenCarriesEachMorselsSeed) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec dbspec;
  dbspec.num_tuples = 20000;
  MicroBenchDb db(&engine, dbspec);

  obs::TraceCollector collector;
  obs::ObsContext obs;
  obs.trace = &collector;
  obs.query_id = 7;
  ParallelScanOptions po;
  po.dop = 2;
  po.morsel_pages = 32;
  std::unique_ptr<ParallelScan> path = MakeParallelSmoothScan(
      &db.index(), db.PredicateForSelectivity(1.0), SmoothScanOptions(), po);
  path->SetObs(&obs);
  ASSERT_TRUE(path->Open().ok());
  TupleBatch batch;
  while (path->NextBatch(&batch)) {
  }
  const size_t morsels = path->num_morsels();
  path->Close();

  const std::string json = collector.ExportJson();
  std::vector<int64_t> seeds;
  const std::string kOpen = "\"name\":\"smooth_open\"";
  const std::string kRegion = "\"region_pages\":";
  for (size_t at = json.find(kOpen); at != std::string::npos;
       at = json.find(kOpen, at + 1)) {
    const size_t arg = json.find(kRegion, at);
    ASSERT_NE(arg, std::string::npos);
    ASSERT_LT(arg, json.find('}', at));  // Within this event's args.
    seeds.push_back(std::atoll(json.c_str() + arg + kRegion.size()));
  }
  ASSERT_GE(morsels, 4u);
  ASSERT_EQ(seeds.size(), morsels);
  EXPECT_EQ(*std::min_element(seeds.begin(), seeds.end()), 1);
  EXPECT_GT(*std::max_element(seeds.begin(), seeds.end()), 1);
}

TEST(ReconciliationTest, SmoothCountersMatchOperatorStatsSerialAndParallel) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec dbspec;
  dbspec.num_tuples = 20000;
  dbspec.value_max = 4000;
  dbspec.seed = 17;
  MicroBenchDb db(&engine, dbspec);
  const ScanPredicate pred = db.PredicateForSelectivity(0.3);

  // Serial: the operator's own SmoothScanStats and the registry's
  // counter-backed smooth.* metrics are two books of one run.
  uint64_t serial_tuples = 0;
  {
    obs::MetricsRegistry registry;
    obs::ObsContext obs;
    obs.metrics = &registry;
    engine.ColdRestart();
    SmoothScan path(&db.index(), pred);
    path.SetObs(&obs);
    ASSERT_TRUE(path.Open().ok());
    TupleBatch batch;
    while (path.NextBatch(&batch)) serial_tuples += batch.size();
    const SmoothScanStats ss = path.smooth_stats();
    path.Close();
    const obs::MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.region_grows")),
              ss.expansions);
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.region_shrinks")),
              ss.shrinks);
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.page_cache_hits")),
              ss.page_cache_hits);
    EXPECT_GT(ss.expansions, 0u);       // 30% selectivity: the region grows.
    EXPECT_GT(ss.page_cache_hits, 0u);  // ... so later targets are skipped.
  }

  // Parallel, at two DOPs: the kernel's morsel-merged stats reconcile with
  // the registry the same way — and, the determinism claim, each stream's
  // growth decisions use only its prolog seed and its own counters, so the
  // totals are a function of the morsel partition, not of scheduling or
  // worker count.
  SmoothScanStats parallel_stats[2];
  const uint32_t kDops[2] = {2, 8};
  for (int i = 0; i < 2; ++i) {
    obs::MetricsRegistry registry;
    obs::ObsContext obs;
    obs.metrics = &registry;
    engine.ColdRestart();
    ParallelScanOptions po;
    po.dop = kDops[i];
    std::unique_ptr<ParallelScan> path =
        MakeParallelSmoothScan(&db.index(), pred, SmoothScanOptions(), po);
    path->SetObs(&obs);
    ASSERT_TRUE(path->Open().ok());
    uint64_t tuples = 0;
    TupleBatch batch;
    while (path->NextBatch(&batch)) tuples += batch.size();
    parallel_stats[i] = path->kernel()->smooth_stats();
    path->Close();
    EXPECT_EQ(tuples, serial_tuples);
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const SmoothScanStats& ss = parallel_stats[i];
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.region_grows")),
              ss.expansions);
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.region_shrinks")),
              ss.shrinks);
    EXPECT_EQ(static_cast<uint64_t>(snap.Value("smooth.page_cache_hits")),
              ss.page_cache_hits);
    // Eager-only kernel: the deferred trigger never fires, so the serial-
    // only morph_triggers counter must not appear.
    EXPECT_FALSE(snap.Has("smooth.morph_triggers"));
  }
  EXPECT_EQ(parallel_stats[0].expansions, parallel_stats[1].expansions);
  EXPECT_EQ(parallel_stats[0].shrinks, parallel_stats[1].shrinks);
  EXPECT_EQ(parallel_stats[0].page_cache_hits,
            parallel_stats[1].page_cache_hits);
}

TEST(WorkloadReportTest, CarriesRegistrySnapshotAndBrokerState) {
  EngineOptions eo;
  eo.buffer_pool_pages = 256;
  Engine engine(eo);
  MicroBenchSpec dbspec;
  dbspec.num_tuples = 20000;
  MicroBenchDb db(&engine, dbspec);
  MemoryBroker broker{MemoryBrokerOptions()};
  obs::MetricsRegistry registry;

  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  qeo.metrics = &registry;
  qeo.broker = &broker;
  QueryEngine qe(&engine, qeo);
  WorkloadDriver driver(&engine, &db, &qe);

  WorkloadOptions wo;
  wo.clients = 2;
  wo.policy = DriverPolicy::kSmoothScan;
  wo.phases = WorkloadOptions::DriftingPhases(/*queries_per_phase=*/2);
  wo.metrics = &registry;
  wo.broker = &broker;
  const WorkloadReport report = driver.Run(wo);

  EXPECT_EQ(report.queries, 2u * 3u * 2u);
  // The final registry snapshot rode into the report...
  EXPECT_EQ(static_cast<uint64_t>(report.metrics.Value("engine.completed")),
            report.queries);
  EXPECT_TRUE(report.metrics.Has("engine.latency_us.p95"));
  // Each query's private pool is added to the registry at completion.
  EXPECT_GT(report.metrics.Value("bufferpool.misses"), 0.0);
  // ...including the broker gauges, which agree with the direct broker
  // fields (both are read after the last query).
  EXPECT_TRUE(report.metrics.Has("broker.peak_total_bytes"));
  EXPECT_EQ(static_cast<uint64_t>(
                report.metrics.Value("broker.peak_total_bytes")),
            report.mem_peak_total_bytes);
  EXPECT_GT(report.mem_peak_total_bytes, 0u);  // Pool frames are charged.
}

}  // namespace
}  // namespace smoothscan
