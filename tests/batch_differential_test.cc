// Differential testing of the vectorized substrate: for every access path
// (and for Smooth Scan, every morphing policy), draining via NextBatch at
// several batch capacities, including the degenerate capacity 1, must
// produce exactly the same tuple *sequence* and exactly the same
// AccessPathStats as a drain at the default capacity (kDefaultBatchSize).
// The drains run on the SAME operator instance through a Close()/re-Open()
// cycle, which also exercises the documented lifecycle contract (Close
// releases state; re-Open restarts the identical stream).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/smooth_scan.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "exec/operators.h"
#include "plan/access_path_chooser.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

struct Drained {
  std::vector<Tuple> rows;
  AccessPathStats stats;
};

Drained DrainBatch(Engine* engine, AccessPath* path,
                   size_t batch_size = kDefaultBatchSize) {
  engine->ColdRestart();
  EXPECT_TRUE(path->Open().ok());
  Drained d;
  TupleBatch batch(batch_size);
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) d.rows.push_back(batch.row(i));
  }
  d.stats = path->stats();
  path->Close();
  return d;
}

void ExpectSame(const Drained& a, const Drained& b, const char* label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i], b.rows[i]) << label << " row " << i;
  }
  EXPECT_EQ(a.stats.tuples_produced, b.stats.tuples_produced) << label;
  EXPECT_EQ(a.stats.tuples_inspected, b.stats.tuples_inspected) << label;
  EXPECT_EQ(a.stats.heap_pages_probed, b.stats.heap_pages_probed) << label;
}

/// Drains `path` at the default capacity, then re-Opens and drains it at
/// several capacities; every drain must agree with the first.
void CheckPath(Engine* engine, AccessPath* path, const char* label) {
  const Drained oracle = DrainBatch(engine, path);
  EXPECT_GT(oracle.rows.size(), 0u) << label;
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    ExpectSame(oracle, DrainBatch(engine, path, batch_size), label);
  }
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions eo;
    eo.buffer_pool_pages = 256;
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 2000;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

TEST_F(BatchDifferentialTest, FullScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.2);
  FullScan path(&db_->heap(), pred);
  CheckPath(engine_.get(), &path, "FullScan");
}

TEST_F(BatchDifferentialTest, FullScanWithResidual) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 3 != 0; };
  FullScan path(&db_->heap(), pred);
  CheckPath(engine_.get(), &path, "FullScan+residual");
}

TEST_F(BatchDifferentialTest, IndexScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.02);
  IndexScan path(&db_->index(), pred);
  CheckPath(engine_.get(), &path, "IndexScan");
}

TEST_F(BatchDifferentialTest, SortScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  std::unique_ptr<AccessPath> path = MakePath(
      PathKind::kSortScan, &db_->index(), pred, /*need_order=*/true, 0);
  CheckPath(engine_.get(), path.get(), "SortScan");
}

TEST_F(BatchDifferentialTest, SwitchScan) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  SwitchScanOptions so;
  so.estimated_cardinality = 500;  // Forces the mid-stream switch.
  SwitchScan path(&db_->index(), pred, so);
  CheckPath(engine_.get(), &path, "SwitchScan");
}

TEST_F(BatchDifferentialTest, SmoothScanAllPolicies) {
  for (const MorphPolicy policy :
       {MorphPolicy::kGreedy, MorphPolicy::kSelectivityIncrease,
        MorphPolicy::kElastic}) {
    for (const bool ordered : {false, true}) {
      ScanPredicate pred = db_->PredicateForSelectivity(0.15);
      SmoothScanOptions so;
      so.policy = policy;
      so.preserve_order = ordered;
      SmoothScan path(&db_->index(), pred, so);
      std::string label = std::string("SmoothScan/") +
                          MorphPolicyToString(policy) +
                          (ordered ? "/ordered" : "/unordered");
      CheckPath(engine_.get(), &path, label.c_str());
    }
  }
}

TEST_F(BatchDifferentialTest, SmoothScanNonEagerTriggers) {
  for (const MorphTrigger trigger :
       {MorphTrigger::kOptimizerDriven, MorphTrigger::kSlaDriven}) {
    ScanPredicate pred = db_->PredicateForSelectivity(0.2);
    SmoothScanOptions so;
    so.trigger = trigger;
    so.optimizer_estimate = 200;
    so.sla_trigger_cardinality = 200;
    SmoothScan path(&db_->index(), pred, so);
    CheckPath(engine_.get(), &path,
              trigger == MorphTrigger::kOptimizerDriven ? "SmoothScan/opt"
                                                        : "SmoothScan/sla");
  }
}

// ---------------------------------------------------------------------------
// Look-up sites that decode into the output slot (HeapFile::ReadInto) and pop
// it when the residual rejects the row: results against the oracle, and
// the same simulated cost at batch capacity 1 and 1024.
// ---------------------------------------------------------------------------

/// One cold drain: the produced rows and the engine's simulated charges.
struct Measured {
  std::vector<Tuple> rows;
  IoStats io;
  double cpu = 0.0;
};

template <typename Source>
Measured MeasureCold(Engine* engine, Source* source, size_t batch_size) {
  engine->ColdRestart();
  engine->disk().ResetAll();
  engine->cpu().Reset();
  EXPECT_TRUE(source->Open().ok());
  Measured m;
  TupleBatch batch(batch_size);
  while (source->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) m.rows.push_back(batch.row(i));
  }
  source->Close();
  m.io = engine->disk().stats();
  m.cpu = engine->cpu().time();
  return m;
}

/// Drains `source` at capacity 1 and 1024: both must produce exactly
/// `oracle` (as a multiset) and charge the same simulated cost. I/O is
/// compared bit for bit. CPU is charged once per batch, so the running
/// double sum rounds differently at different capacities; it is compared to
/// 1e-12 relative.
template <typename Source>
void CheckLookups(Engine* engine, Source* source,
                  const std::multiset<Tuple>& oracle, const char* label) {
  const Measured one = MeasureCold(engine, source, 1);
  const Measured full = MeasureCold(engine, source, 1024);
  ASSERT_FALSE(oracle.empty()) << label;
  EXPECT_EQ(std::multiset<Tuple>(one.rows.begin(), one.rows.end()), oracle)
      << label << " @1";
  EXPECT_EQ(std::multiset<Tuple>(full.rows.begin(), full.rows.end()), oracle)
      << label << " @1024";
  EXPECT_EQ(one.io.io_requests, full.io.io_requests) << label;
  EXPECT_EQ(one.io.random_ios, full.io.random_ios) << label;
  EXPECT_EQ(one.io.seq_ios, full.io.seq_ios) << label;
  EXPECT_EQ(one.io.pages_read, full.io.pages_read) << label;
  EXPECT_EQ(one.io.io_time, full.io.io_time) << label;  // Exact, not NEAR.
  EXPECT_NEAR(one.cpu, full.cpu, 1e-12 * full.cpu) << label;
}

/// A residual that rejects about a third of the key-range matches, so the
/// look-up sites pop slots they already decoded into.
ScanPredicate WithRejectingResidual(ScanPredicate pred) {
  pred.residual = [](const Tuple& t) { return t[2].AsInt64() % 3 != 0; };
  return pred;
}

class LookupSiteTest : public BatchDifferentialTest {
 protected:
  std::multiset<Tuple> Oracle(const ScanPredicate& pred) const {
    std::multiset<Tuple> oracle;
    db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
      if (pred.Matches(t)) oracle.insert(t);
    });
    return oracle;
  }
};

TEST_F(LookupSiteTest, IndexScanResidualRejects) {
  const ScanPredicate pred =
      WithRejectingResidual(db_->PredicateForSelectivity(0.05));
  IndexScan path(&db_->index(), pred);
  CheckLookups(engine_.get(), &path, Oracle(pred), "IndexScan+residual");
}

TEST_F(LookupSiteTest, SwitchScanResidualRejects) {
  const ScanPredicate pred =
      WithRejectingResidual(db_->PredicateForSelectivity(0.05));
  for (const uint64_t estimate : {uint64_t{1} << 40, uint64_t{300}}) {
    SwitchScanOptions so;
    so.estimated_cardinality = estimate;  // Never fires / fires mid-stream.
    SwitchScan path(&db_->index(), pred, so);
    CheckLookups(engine_.get(), &path, Oracle(pred),
                 estimate == 300 ? "SwitchScan+residual/switched"
                                 : "SwitchScan+residual");
  }
}

TEST_F(LookupSiteTest, SmoothScanMode0ResidualRejects) {
  const ScanPredicate pred =
      WithRejectingResidual(db_->PredicateForSelectivity(0.1));
  for (const bool ordered : {false, true}) {
    SmoothScanOptions so;
    so.trigger = MorphTrigger::kOptimizerDriven;  // Mode 0 first.
    so.optimizer_estimate = 250;
    so.preserve_order = ordered;
    SmoothScan path(&db_->index(), pred, so);
    CheckLookups(engine_.get(), &path, Oracle(pred),
                 ordered ? "SmoothScan/mode0/ordered" : "SmoothScan/mode0");
  }
}

// The switch fires on the 501st qualifying entry, half-way through a
// 1024-row batch: that row is popped from the batch, re-discovered by the
// full scan, and appears exactly once.
TEST_F(LookupSiteTest, SwitchFiringMidBatchProducesTriggerRowOnce) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.3);
  constexpr uint64_t kEstimate = 500;
  // Qualifying entries in index (key, Tid) order; the trigger row is the
  // first one past the estimate.
  std::vector<std::tuple<int64_t, Tid, Tuple>> entries;
  db_->heap().ForEachDirect([&](Tid tid, const Tuple& t) {
    if (pred.Matches(t)) entries.emplace_back(t[pred.column].AsInt64(), tid, t);
  });
  ASSERT_GT(entries.size(), 2 * kEstimate);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });
  const Tuple& trigger = std::get<2>(entries[kEstimate]);

  SwitchScanOptions so;
  so.estimated_cardinality = kEstimate;
  SwitchScan path(&db_->index(), pred, so);
  for (const size_t cap : {size_t{1}, size_t{1024}}) {
    const Measured m = MeasureCold(engine_.get(), &path, cap);
    EXPECT_TRUE(path.switched()) << cap;
    EXPECT_EQ(std::count(m.rows.begin(), m.rows.end(), trigger), 1) << cap;
  }
  CheckLookups(engine_.get(), &path, Oracle(pred), "SwitchScan/mid-batch");
}

// ---------------------------------------------------------------------------
// SortScan's streamed heap phase against a replay of the per-TID fetch loop
// it replaced: one FetchExtent per coalesced extent, then one
// HeapFile::ReadInto (one pool Fetch) per TID, with inspect and produce
// charged once at the end. The cursor decodes each page's run of TIDs under
// one Fetch and counts the run's other look-ups as hits, so on a private
// stack every row, counter and simulated charge must agree bit for bit,
// whatever the pool size and the batch capacity.
// ---------------------------------------------------------------------------

/// A private accounting stack with a pool of `pool_pages`.
struct SizedStack {
  SizedStack(Engine* engine, size_t pool_pages)
      : disk(engine->options().device, engine->options().page_size),
        pool(&engine->storage(), &disk, pool_pages),
        ctx{&pool, &cpu, &disk, &engine->batch_pool()} {}

  SimDisk disk;
  BufferPool pool;
  CpuMeter cpu;
  ExecContext ctx;
};

/// Everything one run leaves behind on its stack.
struct StackRun {
  std::vector<Tuple> rows;
  AccessPathStats stats;
  IoStats io;
  double cpu = 0.0;
  BufferPoolStats pool;
};

void Settle(const SizedStack& stack, StackRun* run) {
  run->io = stack.disk.stats();
  run->cpu = stack.cpu.time();
  run->pool = stack.pool.stats();
}

/// The per-TID SortScan, replayed against `stack`.
StackRun ReplayPerTidSortScan(const BPlusTree& index,
                              const ScanPredicate& pred, SizedStack* stack) {
  const ExecContext& ctx = stack->ctx;
  std::vector<Tid> tids;
  for (BPlusTree::Iterator it = index.Seek(pred.lo, &ctx);
       it.Valid() && it.key() < pred.hi; it.Next()) {
    tids.push_back(it.tid());
  }
  ctx.cpu->ChargeSort(tids.size());
  std::sort(tids.begin(), tids.end());
  const HeapFile& heap = *index.heap();
  StackRun run;
  Tuple tuple;
  for (size_t i = 0; i < tids.size();) {
    // One extent: the entries on the first page or on the page after the
    // previous entry's, within kSortScanChunkPages of the first.
    const PageId first = tids[i].page_id;
    PageId last = first;
    size_t end = i + 1;
    while (end < tids.size() && tids[end].page_id <= last + 1 &&
           tids[end].page_id - first < kSortScanChunkPages) {
      last = tids[end++].page_id;
    }
    ctx.pool->FetchExtent(heap.file_id(), first, last - first + 1);
    run.stats.heap_pages_probed += last - first + 1;
    for (; i < end; ++i) {
      heap.ReadInto(tids[i], ctx, &tuple);
      ++run.stats.tuples_inspected;
      if (pred.residual && !pred.residual(tuple)) continue;
      ++run.stats.tuples_produced;
      run.rows.push_back(tuple);
    }
  }
  ctx.cpu->ChargeInspect(run.stats.tuples_inspected);
  ctx.cpu->ChargeProduce(run.stats.tuples_produced);
  Settle(*stack, &run);
  return run;
}

/// Drains `scan` against `stack` at batch capacity `capacity`, checking after
/// every batch that the scan holds no pin.
StackRun DrainOnStack(SortScan* scan, SizedStack* stack, size_t capacity) {
  scan->SetExecContext(&stack->ctx);
  EXPECT_TRUE(scan->Open().ok());
  StackRun run;
  TupleBatch batch(capacity);
  while (scan->NextBatch(&batch)) {
    EXPECT_EQ(stack->pool.pinned_pages(), 0u) << "a pin outlived NextBatch";
    for (size_t i = 0; i < batch.size(); ++i) run.rows.push_back(batch.row(i));
  }
  run.stats = scan->stats();
  scan->Close();
  scan->SetExecContext(nullptr);
  Settle(*stack, &run);
  return run;
}

void ExpectSameRun(const StackRun& want, const StackRun& got,
                   const std::string& label) {
  ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
  for (size_t i = 0; i < want.rows.size(); ++i) {
    ASSERT_EQ(want.rows[i], got.rows[i]) << label << " row " << i;
  }
  EXPECT_EQ(want.stats, got.stats) << label;
  EXPECT_EQ(want.io.random_ios, got.io.random_ios) << label;
  EXPECT_EQ(want.io.seq_ios, got.io.seq_ios) << label;
  EXPECT_EQ(want.io.io_requests, got.io.io_requests) << label;
  EXPECT_EQ(want.io.pages_read, got.io.pages_read) << label;
  EXPECT_EQ(want.io.bytes_read, got.io.bytes_read) << label;
  EXPECT_EQ(want.io.io_time, got.io.io_time) << label;  // Exact doubles.
  EXPECT_EQ(want.cpu, got.cpu) << label;
  EXPECT_EQ(want.pool.hits, got.pool.hits) << label;
  EXPECT_EQ(want.pool.misses, got.pool.misses) << label;
}

TEST_F(BatchDifferentialTest, StreamedSortScanMatchesPerTidFetch) {
  for (const size_t pool_pages : {size_t{4}, size_t{64}, size_t{1024}}) {
    for (const double sel : {0.0001, 0.01, 0.1, 1.0}) {
      for (const bool residual : {false, true}) {
        ScanPredicate pred = db_->PredicateForSelectivity(sel);
        if (residual) pred = WithRejectingResidual(pred);
        const std::string label = "pool " + std::to_string(pool_pages) +
                                  " sel " + std::to_string(sel) +
                                  (residual ? " residual" : "");
        SizedStack replay_stack(engine_.get(), pool_pages);
        const StackRun replay =
            ReplayPerTidSortScan(db_->index(), pred, &replay_stack);
        if (sel >= 0.01) {
          ASSERT_FALSE(replay.rows.empty()) << label;
        }
        SortScan scan(&db_->index(), pred);
        for (const size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
          SizedStack stack(engine_.get(), pool_pages);
          ExpectSameRun(replay, DrainOnStack(&scan, &stack, capacity),
                        label + " capacity " + std::to_string(capacity));
        }
        // Close after one batch, then re-Open and drain: the same rows and
        // counters as a fresh drain (residency differs, so only those).
        SizedStack stack(engine_.get(), pool_pages);
        scan.SetExecContext(&stack.ctx);
        ASSERT_TRUE(scan.Open().ok());
        TupleBatch batch(7);
        EXPECT_EQ(scan.NextBatch(&batch), !replay.rows.empty()) << label;
        EXPECT_EQ(stack.pool.pinned_pages(), 0u) << label;
        scan.Close();
        const StackRun again = DrainOnStack(&scan, &stack, 7);
        EXPECT_EQ(again.rows, replay.rows) << label << " re-Open";
        EXPECT_EQ(again.stats, replay.stats) << label << " re-Open";
      }
    }
  }
}

// One outer key matches 1500 inner rows: the run overflows a 1024-row batch
// (and every batch at capacity 1) into the INLJ's pending_ buffer.
TEST(IndexNLJoinLookupTest, MatchRunLongerThanBatch) {
  EngineOptions eo;
  eo.buffer_pool_pages = 64;
  Engine engine(eo);
  HeapFile inner(&engine, "inner", MakeIntSchema(2));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(inner.Append({Value::Int64(i % 2), Value::Int64(i)}).ok());
  }
  BPlusTree index(&engine, "inner_idx", &inner, 0);
  index.BulkBuild();
  HeapFile outer(&engine, "outer", MakeIntSchema(2));
  for (const int64_t key : {1, 5, 0, 1}) {
    ASSERT_TRUE(outer.Append({Value::Int64(key), Value::Int64(-key)}).ok());
  }

  std::multiset<Tuple> oracle;
  outer.ForEachDirect([&](Tid, const Tuple& o) {
    inner.ForEachDirect([&](Tid, const Tuple& in) {
      if (in[0] == o[0]) {
        Tuple joined = o;
        joined.insert(joined.end(), in.begin(), in.end());
        oracle.insert(std::move(joined));
      }
    });
  });
  ASSERT_EQ(oracle.size(), 4500u);
  IndexNestedLoopJoinOp join(
      std::make_unique<FullScan>(&outer, ScanPredicate{}),
      &index, 0);
  CheckLookups(&engine, &join, oracle, "IndexNLJoin/long-run");
}

}  // namespace
}  // namespace smoothscan
