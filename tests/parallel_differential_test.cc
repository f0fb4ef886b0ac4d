// Parallel differential testing: every parallel access path must produce
// exactly the serial Full-Scan oracle's tuple multiset, and its *simulated*
// cost must be a pure function of the morsel decomposition — bit-identical
// engine accounting at DOP 1, 2 and 8 across all five paths and all three
// morph policies. The page-range parallel full scan goes further: its summed
// charges equal the serial scan's exactly. Also covers the Close()/re-Open()
// contract of the parallel paths, parked morsels on a shared worker pool,
// the task scheduler, and the per-worker deterministic Rng streams.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "access/full_scan.h"
#include "access/page_id_cache.h"
#include "access/parallel_scan.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "exec/task_scheduler.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

/// Engine counter deltas of one measured run.
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const CostSnapshot& other, const char* label) const {
    EXPECT_EQ(io.io_requests, other.io.io_requests) << label;
    EXPECT_EQ(io.random_ios, other.io.random_ios) << label;
    EXPECT_EQ(io.seq_ios, other.io.seq_ios) << label;
    EXPECT_EQ(io.pages_read, other.io.pages_read) << label;
    EXPECT_EQ(io.bytes_read, other.io.bytes_read) << label;
    EXPECT_EQ(io.io_time, other.io.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, other.cpu) << label;                // Exact, not NEAR.
    EXPECT_EQ(tuples, other.tuples) << label;
  }
};

/// Runs `path` cold to completion, checking the result multiset (of c1)
/// against `oracle`, and returns the engine cost. Counters are cleared first:
/// accumulating identical charge sequences onto *different* meter bases
/// shifts double rounding, so bit-identity is defined from a zeroed meter.
CostSnapshot RunAndCheck(Engine* engine, AccessPath* path,
                         const std::multiset<int64_t>& oracle,
                         const char* label) {
  engine->ColdRestart();
  engine->disk().ResetAll();
  engine->cpu().Reset();
  EXPECT_TRUE(path->Open().ok()) << label;
  std::multiset<int64_t> got;
  TupleBatch batch;
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      got.insert(batch.row(i)[0].AsInt64());
    }
  }
  path->Close();
  EXPECT_EQ(got, oracle) << label;
  CostSnapshot snap;
  snap.io = engine->disk().stats();
  snap.cpu = engine->cpu().time();
  snap.tuples = got.size();
  return snap;
}

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  ParallelDifferentialTest() {
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

  ParallelScanOptions Par(uint32_t dop) const {
    ParallelScanOptions o;
    o.dop = dop;
    o.morsel_pages = 64;
    o.max_key_morsels = 13;  // Odd count exercises uneven deals + stealing.
    return o;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

constexpr uint32_t kDops[] = {1, 2, 8};
constexpr double kSelectivities[] = {0.001, 0.05, 0.5, 1.0};

TEST_F(ParallelDifferentialTest, FullScanMatchesSerialBitForBit) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);

    FullScan serial(&db_->heap(), pred);
    const CostSnapshot serial_cost =
        RunAndCheck(engine_.get(), &serial, oracle, "serial FullScan");

    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(),
                                      Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelFullScan");
      // The page-range decomposition with seeded streams reproduces the
      // serial charges exactly; CPU differs only in float summation order.
      EXPECT_EQ(cost.io.io_requests, serial_cost.io.io_requests);
      EXPECT_EQ(cost.io.random_ios, serial_cost.io.random_ios);
      EXPECT_EQ(cost.io.seq_ios, serial_cost.io.seq_ios);
      EXPECT_EQ(cost.io.pages_read, serial_cost.io.pages_read);
      EXPECT_EQ(cost.io.io_time, serial_cost.io.io_time);
      EXPECT_NEAR(cost.cpu, serial_cost.cpu, 1e-9 * (1.0 + serial_cost.cpu));
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "FullScan DOP invariance");
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, IndexScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelIndexScan(&db_->index(), pred, Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelIndexScan");
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "IndexScan DOP invariance");
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, SortScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      auto par = MakeParallelSortScan(&db_->index(), pred, Par(dop));
      const CostSnapshot cost =
          RunAndCheck(engine_.get(), par.get(), oracle, "ParallelSortScan");
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "SortScan DOP invariance");
      }
    }
  }
}

// Sort Scan's morsels are the populated page-range buckets of its sorted TID
// list, so a selective (or empty) range runs no empty morsels.
TEST_F(ParallelDifferentialTest, SortScanRunsOnlyPopulatedBuckets) {
  ScanPredicate empty = db_->PredicateForSelectivity(0.001);
  empty.lo = empty.hi = 1 << 30;
  for (const ScanPredicate& pred :
       {db_->PredicateForSelectivity(0.001), empty}) {
    std::set<PageId> buckets;
    db_->heap().ForEachDirect([&](Tid tid, const Tuple& t) {
      if (pred.Matches(t)) buckets.insert(tid.page_id / 64);
    });
    auto par = MakeParallelSortScan(&db_->index(), pred, Par(2));
    ASSERT_TRUE(par->Open().ok());
    EXPECT_EQ(par->num_morsels(), buckets.size());
    par->Close();
  }
}

TEST_F(ParallelDifferentialTest, SwitchScanDopInvariant) {
  for (const double sel : kSelectivities) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const std::multiset<int64_t> oracle = Oracle(pred);
    // Estimates below, at and above the true cardinality: unswitched,
    // boundary and switched executions all covered.
    for (const uint64_t estimate :
         {uint64_t{0}, oracle.size() / 2, oracle.size() + 10}) {
      SwitchScanOptions so;
      so.estimated_cardinality = estimate;
      CostSnapshot dop1;
      for (const uint32_t dop : kDops) {
        auto par = MakeParallelSwitchScan(&db_->index(), pred, so, Par(dop));
        const CostSnapshot cost = RunAndCheck(engine_.get(), par.get(), oracle,
                                              "ParallelSwitchScan");
        if (dop == 1) {
          dop1 = cost;
        } else {
          cost.ExpectBitIdentical(dop1, "SwitchScan DOP invariance");
        }
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, SmoothScanDopInvariantAcrossPolicies) {
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const double sel : kSelectivities) {
      const ScanPredicate pred = db_->PredicateForSelectivity(sel);
      const std::multiset<int64_t> oracle = Oracle(pred);
      SmoothScanOptions so;
      so.policy = policy;
      CostSnapshot dop1;
      for (const uint32_t dop : kDops) {
        auto par = MakeParallelSmoothScan(&db_->index(), pred, so, Par(dop));
        const CostSnapshot cost = RunAndCheck(engine_.get(), par.get(), oracle,
                                              "ParallelSmoothScan");
        if (dop == 1) {
          dop1 = cost;
        } else {
          cost.ExpectBitIdentical(
              dop1, MorphPolicyToString(policy));
        }
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, ResidualPredicatesSurviveParallelism) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 3 != 0; };
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto full = MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(),
                                   Par(8));
  RunAndCheck(engine_.get(), full.get(), oracle, "full+residual");
  auto index = MakeParallelIndexScan(&db_->index(), pred, Par(8));
  RunAndCheck(engine_.get(), index.get(), oracle, "index+residual");
  auto smooth = MakeParallelSmoothScan(&db_->index(), pred,
                                       SmoothScanOptions(), Par(8));
  RunAndCheck(engine_.get(), smooth.get(), oracle, "smooth+residual");
}

// ---------- Morph state across morsels ----------
//
// Each morsel starts from the morph state (region size and Eq. 2 counters)
// that the prolog's dry run of the policy reached at the end of the morsels
// before it, so a morsel cut no longer resets the region to one page. The
// paper's bounded worst case then survives parallelism: at 100% selectivity
// over many morsels the parallel scan stays within 1.35x of the serial
// operator, and the seeds keep its cost DOP-invariant.

double SimTime(const CostSnapshot& c) { return c.io.io_time + c.cpu; }

TEST_F(ParallelDifferentialTest, SmoothScanCarriesMorphStateAcrossMorsels) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  SmoothScan serial(&db_->index(), pred);
  const double serial_sim =
      SimTime(RunAndCheck(engine_.get(), &serial, oracle, "serial Smooth"));
  constexpr uint32_t kMorselPages = 40;
  ASSERT_GE(PageRangeMorsels(
                static_cast<PageId>(db_->heap().num_pages()), kMorselPages)
                .size(),
            8u);
  CostSnapshot dop1;
  for (const uint32_t dop : kDops) {
    ParallelScanOptions po = Par(dop);
    po.morsel_pages = kMorselPages;
    auto par = MakeParallelSmoothScan(&db_->index(), pred,
                                      SmoothScanOptions(), po);
    const CostSnapshot cost =
        RunAndCheck(engine_.get(), par.get(), oracle, "ParallelSmoothScan");
    EXPECT_LE(SimTime(cost), 1.35 * serial_sim) << "dop " << dop;
    if (dop == 1) {
      dop1 = cost;
    } else {
      cost.ExpectBitIdentical(dop1, "seeded Smooth DOP invariance");
    }
  }
}

// The seeds come from the index alone and ignore residual predicates, so
// with one they only estimate the morsels' true selectivity — but they stay
// a pure function of the index and the morsel plan: results and DOP
// invariance hold at every selectivity.
TEST_F(ParallelDifferentialTest, SmoothScanSeedsIgnoreResiduals) {
  for (const double sel : kSelectivities) {
    ScanPredicate pred = db_->PredicateForSelectivity(sel);
    pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 7 == 0; };
    const std::multiset<int64_t> oracle = Oracle(pred);
    CostSnapshot dop1;
    for (const uint32_t dop : kDops) {
      ParallelScanOptions po = Par(dop);
      po.morsel_pages = 32;
      auto par = MakeParallelSmoothScan(&db_->index(), pred,
                                        SmoothScanOptions(), po);
      const CostSnapshot cost = RunAndCheck(engine_.get(), par.get(), oracle,
                                            "smooth+residual");
      if (dop == 1) {
        dop1 = cost;
      } else {
        cost.ExpectBitIdentical(dop1, "seeded Smooth+residual DOP invariance");
      }
    }
  }
}

TEST_F(ParallelDifferentialTest, CloseAndReopenRestartsCleanly) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto par = MakeParallelSmoothScan(&db_->index(), pred, SmoothScanOptions(),
                                    Par(4));

  // Drain a few batches, abandon mid-stream, close.
  engine_->ColdRestart();
  ASSERT_TRUE(par->Open().ok());
  TupleBatch batch;
  for (int i = 0; i < 3 && par->NextBatch(&batch); ++i) {
  }
  par->Close();

  // Re-open: the second cycle must produce the full result from scratch.
  RunAndCheck(engine_.get(), par.get(), oracle, "re-open after Close");
  // And a *third* full cycle right after a completed one; stats() must
  // report the current cycle only, not carry the previous cycles' counters.
  RunAndCheck(engine_.get(), par.get(), oracle, "second re-open");
  EXPECT_EQ(par->stats().tuples_produced, oracle.size());
}

TEST_F(ParallelDifferentialTest, GatherComposesWithSerialOperatorsAbove) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.4);
  const std::multiset<int64_t> oracle = Oracle(pred);
  engine_->ColdRestart();
  auto gather =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(8));
  // Serial filter above the exchange boundary.
  FilterOp filter(engine_.get(), std::move(gather), [](const Tuple& t) {
    return t[0].AsInt64() % 2 == 0;
  });
  ASSERT_TRUE(filter.Open().ok());
  std::multiset<int64_t> got;
  TupleBatch batch;
  while (filter.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      got.insert(batch.row(i)[0].AsInt64());
    }
  }
  filter.Close();
  std::multiset<int64_t> expected;
  for (const int64_t v : oracle) {
    if (v % 2 == 0) expected.insert(v);
  }
  EXPECT_EQ(got, expected);
}

// ---------- One morsel == the serial operator ----------
//
// With one worker and one morsel covering the whole heap, a parallel scan is
// the serial operator run inside the morsel machinery: same rows in the same
// order, same counters. (Simulated cost differs only in where the leaf walk
// is charged — the planning stream — so it is not compared here.)

/// Drains `path`, returning the c0 (row id) sequence in emission order.
std::vector<int64_t> DrainInOrder(Engine* engine, AccessPath* path) {
  engine->ColdRestart();
  EXPECT_TRUE(path->Open().ok());
  std::vector<int64_t> ids;
  TupleBatch batch;
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(batch.row(i)[0].AsInt64());
    }
  }
  path->Close();
  return ids;
}

class SingleMorselTest : public ParallelDifferentialTest {
 protected:
  /// dop 1 and a morsel larger than the heap: exactly one morsel.
  ParallelScanOptions OneMorsel() const {
    ParallelScanOptions o;
    o.dop = 1;
    o.morsel_pages = 1u << 20;
    EXPECT_GE(o.morsel_pages, db_->heap().num_pages());
    return o;
  }

  /// Runs both; checks rows (in order) and counters.
  void ExpectSameRun(AccessPath* serial, ParallelScan* par,
                     const std::string& label) {
    const std::vector<int64_t> want = DrainInOrder(engine_.get(), serial);
    const std::vector<int64_t> got = DrainInOrder(engine_.get(), par);
    EXPECT_FALSE(want.empty()) << label;
    EXPECT_EQ(got, want) << label;
    EXPECT_EQ(par->stats(), serial->stats()) << label;
  }
};

TEST_F(SingleMorselTest, SortScanMatchesSerialOperator) {
  for (const double sel : {0.01, 0.3}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    SortScan serial(&db_->index(), pred);
    auto par = MakeParallelSortScan(&db_->index(), pred, OneMorsel());
    ExpectSameRun(&serial, par.get(), "sort sel=" + std::to_string(sel));
  }
}

TEST_F(SingleMorselTest, SwitchScanMatchesSerialOperator) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.05);
  const uint64_t card = Oracle(pred).size();
  // The switch fires halfway through, and never.
  for (const uint64_t estimate : {card / 2, card + 10}) {
    SwitchScanOptions so;
    so.estimated_cardinality = estimate;
    SwitchScan serial(&db_->index(), pred, so);
    auto par = MakeParallelSwitchScan(&db_->index(), pred, so, OneMorsel());
    const std::string label = "switch estimate=" + std::to_string(estimate);
    ExpectSameRun(&serial, par.get(), label);
    EXPECT_EQ(serial.switched(), estimate < card) << label;
  }
}

TEST_F(SingleMorselTest, SmoothScanMatchesSerialOperatorAcrossPolicies) {
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const double sel : {0.01, 0.3}) {
      const ScanPredicate pred = db_->PredicateForSelectivity(sel);
      SmoothScanOptions so;
      so.policy = policy;
      SmoothScan serial(&db_->index(), pred, so);
      auto par = MakeParallelSmoothScan(&db_->index(), pred, so, OneMorsel());
      const std::string label = std::string(MorphPolicyToString(policy)) +
                                " sel=" + std::to_string(sel);
      ExpectSameRun(&serial, par.get(), label);
      EXPECT_TRUE(par->kernel()->smooth_stats() == serial.smooth_stats())
          << label;
      EXPECT_GT(serial.smooth_stats().probes, 0u) << label;
    }
  }
}

// The serial index-driven constructors abort on a predicate that is not on
// the index key; so do the parallel factories (they used to accept it and
// return wrong rows).
TEST_F(ParallelDifferentialTest, NonKeyPredicateIsRejectedLikeSerial) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  pred.column = 0;  // Row id: not the index key.
  EXPECT_DEATH(
      MakeParallelSortScan(&db_->index(), pred, Par(2)),
      "");
  EXPECT_DEATH(MakeParallelSmoothScan(&db_->index(), pred,
                                      SmoothScanOptions(), Par(2)),
               "");
  EXPECT_DEATH({ SortScan serial(&db_->index(), pred); }, "");
  EXPECT_DEATH({ SmoothScan serial(&db_->index(), pred); }, "");
}

// ---------- One worker pool for every scan ----------

/// Entries of /proc/self/task (this process's threads), or -1 where the
/// directory cannot be read.
int CountThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++n;
  }
  return n;
}

TEST_F(ParallelDifferentialTest, FreshScanOnWarmEngineStartsNoThread) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  const std::multiset<int64_t> oracle = Oracle(pred);
  // The first parallel drain starts the engine's workers.
  auto warm =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
  RunAndCheck(engine_.get(), warm.get(), oracle, "warm-up drain");

  const int before = CountThreads();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  auto fresh =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
  RunAndCheck(engine_.get(), fresh.get(), oracle, "fresh scan");
  EXPECT_EQ(CountThreads(), before) << "a fresh scan started threads";
}

// One worker, two scans open at once. Scan A's consumer takes one batch and
// then drains all of scan B before it takes another: A's morsels past its
// consumer fill the window and park, returning the one worker to B's
// morsels instead of holding it. Each scan charges its own cold stack, which
// must match the scan's solo run bit for bit.
TEST_F(ParallelDifferentialTest, TwoScansShareOneWorkerWithoutDeadlock) {
  TaskScheduler one_worker(1);
  const ScanPredicate preds[2] = {db_->PredicateForSelectivity(1.0),
                                  db_->PredicateForSelectivity(0.5)};
  struct Run {
    std::unique_ptr<AccountingStack> stack;
    std::unique_ptr<ParallelScan> scan;
    std::multiset<int64_t> got;
  };
  auto make = [&](const ScanPredicate& pred) {
    Run r;
    r.stack =
        std::make_unique<AccountingStack>(engine_.get(), &engine_->pool());
    r.stack->SetScheduler(&one_worker);
    r.scan =
        MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
    r.scan->SetExecContext(&r.stack->ctx());
    return r;
  };
  TupleBatch batch;
  auto collect = [&batch](Run* r) {
    for (size_t i = 0; i < batch.size(); ++i) {
      r->got.insert(batch.row(i)[0].AsInt64());
    }
  };
  auto drain = [&](Run* r) {
    while (r->scan->NextBatch(&batch)) collect(r);
    r->scan->Close();
  };

  Run solo[2] = {make(preds[0]), make(preds[1])};
  for (Run& r : solo) {
    ASSERT_TRUE(r.scan->Open().ok());
    drain(&r);
  }

  Run a = make(preds[0]);
  Run b = make(preds[1]);
  ASSERT_TRUE(a.scan->Open().ok());
  ASSERT_TRUE(b.scan->Open().ok());
  ASSERT_TRUE(a.scan->NextBatch(&batch));
  collect(&a);
  drain(&b);
  drain(&a);

  // More rows than the window holds: scan A's morsels had to park.
  ASSERT_GT(a.got.size(),
            ParallelScan::kQueuedBatchesPerWorker * 2 * kDefaultBatchSize);
  const Run* runs[2] = {&a, &b};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "scan A" : "scan B");
    EXPECT_EQ(runs[i]->got, Oracle(preds[i]));
    EXPECT_EQ(solo[i].got, Oracle(preds[i]));
    const IoStats io = runs[i]->stack->disk().stats();
    const IoStats solo_io = solo[i].stack->disk().stats();
    EXPECT_EQ(io.io_requests, solo_io.io_requests);
    EXPECT_EQ(io.random_ios, solo_io.random_ios);
    EXPECT_EQ(io.seq_ios, solo_io.seq_ios);
    EXPECT_EQ(io.pages_read, solo_io.pages_read);
    EXPECT_EQ(io.io_time, solo_io.io_time);  // Exact, not NEAR.
    EXPECT_EQ(runs[i]->stack->cpu().time(), solo[i].stack->cpu().time());
    EXPECT_EQ(runs[i]->scan->stats(), solo[i].scan->stats());
  }
}

// ---------- TaskScheduler ----------

/// Waits until `done` reaches `n`: the scheduler has no completion handle,
/// so the tasks count themselves.
void AwaitCount(const std::atomic<int>& done, int n) {
  while (done.load() < n) std::this_thread::yield();
}

TEST(TaskSchedulerTest, RunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 100;
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<int> done{0};
  {
    TaskScheduler scheduler(4);
    std::vector<TaskScheduler::Task> tasks;
    for (int i = 0; i < kTasks; ++i) {
      tasks.push_back([&runs, &done, i] {
        runs[i].fetch_add(1);
        done.fetch_add(1);
      });
    }
    scheduler.Submit(std::move(tasks));
    AwaitCount(done, kTasks);
  }  // Joins the workers: no task may run again after this.
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(TaskSchedulerTest, SubmissionsCanOverlap) {
  TaskScheduler scheduler(3);
  std::atomic<int> a{0}, b{0}, done{0};
  // The first submission's tasks finish only once the second one's task
  // ran: the two overlap on the pool.
  auto first = [&] {
    while (b.load() == 0) std::this_thread::yield();
    a.fetch_add(1);
    done.fetch_add(1);
  };
  scheduler.Submit({first, first});
  scheduler.Submit({[&] {
    b.fetch_add(1);
    done.fetch_add(1);
  }});
  AwaitCount(done, 3);
  EXPECT_EQ(a.load(), 2);
  EXPECT_EQ(b.load(), 1);
}

TEST(TaskSchedulerTest, OneTaskSubmitsFromManyThreadsAllRun) {
  // One wake per task: a stream of single-task submissions, the shape
  // parked morsels produce, must never strand a task on a missed wake-up.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  TaskScheduler scheduler(3);
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        scheduler.Submit({[&done] { done.fetch_add(1); }});
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  AwaitCount(done, kThreads * kPerThread);
  EXPECT_EQ(done.load(), kThreads * kPerThread);
}

TEST(RngForkTest, DeterministicAndDecorrelated) {
  Rng root(42);
  Rng a = root.Fork(0);
  Rng b = root.Fork(1);
  Rng a2 = Rng(42).Fork(0);
  EXPECT_EQ(a.Next(), a2.Next());
  EXPECT_NE(a.Next(), b.Next());
  EXPECT_NE(Rng(42).Fork(0).Next(), Rng(43).Fork(0).Next());
}

// ---------- PageIdCache under concurrent marking ----------

TEST(ConcurrentPageIdCacheTest, MarkReportsFirstMarkOnly) {
  PageIdCache cache(200);
  EXPECT_FALSE(cache.IsMarked(63));
  EXPECT_TRUE(cache.Mark(63));
  EXPECT_FALSE(cache.Mark(63));
  EXPECT_TRUE(cache.IsMarked(63));
  EXPECT_FALSE(cache.IsMarked(64));  // Word boundary neighbour untouched.
  EXPECT_TRUE(cache.Mark(64));
  EXPECT_TRUE(cache.IsMarked(64));
}

TEST(ConcurrentPageIdCacheTest, ConcurrentDisjointMarking) {
  PageIdCache cache(1024);
  TaskScheduler scheduler(8);
  std::atomic<int> done{0};
  std::vector<TaskScheduler::Task> tasks;
  for (uint32_t t = 0; t < 8; ++t) {
    tasks.push_back([&cache, &done, t] {
      for (PageId p = t * 128; p < (t + 1) * 128; ++p) {
        EXPECT_TRUE(cache.Mark(p));
      }
      done.fetch_add(1);
    });
  }
  scheduler.Submit(std::move(tasks));
  AwaitCount(done, 8);
  for (PageId p = 0; p < 1024; ++p) EXPECT_TRUE(cache.IsMarked(p));
}

}  // namespace
}  // namespace smoothscan
