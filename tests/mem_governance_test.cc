// Memory-governance differential and allocation-regression testing.
//
// The contract under test: the batch pools and the unified memory broker
// are *accounting and recycling* layers — they may shed storage, spill
// cached tuples and clamp the shared-scan drift window, but they must never
// change any query's simulated cost by a single bit, and a warm steady-state
// scan loop must perform zero heap allocations per batch. The allocation
// claim is proven with a counting global allocator (suite
// AllocationRegression, run as its own CI step); the cost claim with exact
// EXPECT_EQ differentials — every warm cycle of a parallel scan against its
// cold first cycle, a serial Smooth Scan under a 1-byte quota against an
// ungoverned one, and broker on (tight budget + per-query quota, governance
// visibly firing) vs off through the QueryEngine at admission caps 1/2/8.
// Also covers: the recycled-batch hand-off across Open cycles (the
// `pending_ = TupleBatch()` storage-discard regression), deterministic
// ResultCache pressure spills that lose no tuple, and the shared-scan drift
// clamp under pressure.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "access/full_scan.h"
#include "access/index_scan.h"
#include "access/parallel_scan.h"
#include "access/result_cache.h"
#include "access/sort_scan.h"
#include "access/switch_scan.h"
#include "engine/session.h"
#include "exec/operators.h"
#include "exec/task_scheduler.h"
#include "index/bplus_tree.h"
#include "mem/batch_pool.h"
#include "mem/memory_broker.h"
#include "sharing/scan_sharing.h"
#include "sharing/shared_scan_path.h"
#include "storage/exec_context.h"
#include "workload/micro_bench.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// Counting global allocator: every heap allocation in the binary bumps the
// counter, so "zero allocations in the steady-state loop" is checked against
// the real allocator, not a proxy. Frees are not counted (ordering with
// static destructors makes them uninteresting here). GCC flags free() inside
// a replaced operator delete as a new/delete mismatch; the pairing here is
// malloc/free on both sides, so the warning is a false positive.
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

/// The engine batch pool's counts since `base`.
BatchPoolStats Since(const BatchPoolStats& now, const BatchPoolStats& base) {
  BatchPoolStats d;
  d.acquires = now.acquires - base.acquires;
  d.reuses = now.reuses - base.reuses;
  d.releases = now.releases - base.releases;
  d.sheds = now.sheds - base.sheds;
  d.fresh_batches = now.fresh_batches - base.fresh_batches;
  return d;
}

/// Per-query engine charges of one measured run (the idiom of
/// parallel_differential_test.cc — bit-identity is defined from a zeroed
/// meter after a cold restart).
struct CostSnapshot {
  IoStats io;
  double cpu = 0.0;
  uint64_t tuples = 0;

  void ExpectBitIdentical(const CostSnapshot& other, const char* label) const {
    EXPECT_EQ(io.io_requests, other.io.io_requests) << label;
    EXPECT_EQ(io.random_ios, other.io.random_ios) << label;
    EXPECT_EQ(io.seq_ios, other.io.seq_ios) << label;
    EXPECT_EQ(io.pages_read, other.io.pages_read) << label;
    EXPECT_EQ(io.io_time, other.io.io_time) << label;  // Exact, not NEAR.
    EXPECT_EQ(cpu, other.cpu) << label;                // Exact, not NEAR.
    EXPECT_EQ(tuples, other.tuples) << label;
  }

  void ExpectBitIdentical(const QueryMetrics& m, const char* label) const {
    EXPECT_EQ(io.io_requests, m.io_requests) << label;
    EXPECT_EQ(io.random_ios, m.random_ios) << label;
    EXPECT_EQ(io.seq_ios, m.seq_ios) << label;
    EXPECT_EQ(io.pages_read, m.pages_read) << label;
    EXPECT_EQ(io.io_time, m.io_time) << label;
    EXPECT_EQ(cpu, m.cpu_time) << label;
    EXPECT_EQ(tuples, m.tuples) << label;
  }
};

class MemGovernanceTest : public ::testing::Test {
 protected:
  MemGovernanceTest() {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;  // Holds the whole ~330-page table.
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

  /// Cold measured run against the engine's own stack, counters zeroed;
  /// collects the first column of every row into `keys` (if set).
  CostSnapshot MeasuredRun(AccessPath* path,
                           std::multiset<int64_t>* keys = nullptr) {
    engine_->ColdRestart();
    engine_->disk().ResetAll();
    engine_->cpu().Reset();
    EXPECT_TRUE(path->Open().ok());
    CostSnapshot snap;
    TupleBatch batch;
    while (path->NextBatch(&batch)) {
      snap.tuples += batch.size();
      for (size_t i = 0; keys != nullptr && i < batch.size(); ++i) {
        keys->insert(batch.row(i)[0].AsInt64());
      }
    }
    path->Close();
    snap.io = engine_->disk().stats();
    snap.cpu = engine_->cpu().time();
    return snap;
  }

  ParallelScanOptions Par(uint32_t dop) const {
    ParallelScanOptions o;
    o.dop = dop;
    o.morsel_pages = 64;
    o.max_key_morsels = 13;
    return o;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
};

using AllocationRegression = MemGovernanceTest;

// ---------------------------------------------------------------------------
// Allocation regression: the steady-state scan loop allocates nothing.
// ---------------------------------------------------------------------------

// A warm serial Full Scan — buffer pool resident, carry batch's Value
// storage grown — must run its fill loop with strictly ZERO heap
// allocations: pages pin out of the pool, tuples deserialize into recycled
// Value slots, the batch recycles its own rows.
TEST_F(AllocationRegression, SerialWarmScanLoopAllocatesNothing) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  // Pass 1: fault the table into the (large enough) buffer pool.
  {
    FullScan warmer(&db_->heap(), pred);
    ASSERT_TRUE(warmer.Open().ok());
    TupleBatch batch;
    while (warmer.NextBatch(&batch)) {
    }
    warmer.Close();
  }
  // Pass 2: warm carry batch over a warm pool, then count.
  FullScan scan(&db_->heap(), pred);
  ASSERT_TRUE(scan.Open().ok());
  TupleBatch batch;
  uint64_t tuples = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scan.NextBatch(&batch));
    tuples += batch.size();
  }
  const uint64_t before = AllocCount();
  uint64_t counted_batches = 0;
  while (scan.NextBatch(&batch)) {
    tuples += batch.size();
    ++counted_batches;
  }
  const uint64_t allocs = AllocCount() - before;
  scan.Close();
  ASSERT_GT(counted_batches, 10u) << "loop too short to be a steady state";
  EXPECT_EQ(allocs, 0u) << "steady-state scan loop hit the heap ("
                        << counted_batches << " batches)";
  EXPECT_EQ(tuples, 30000u);
}

/// A table four times the size of the engine's buffer pool, so the look-up
/// paths' page fetches mostly miss and every miss evicts.
struct SmallPoolDb {
  SmallPoolDb() {
    EngineOptions eo;
    eo.buffer_pool_pages = 72;  // The table has 310 pages.
    engine = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 30000;
    spec.value_max = 4000;
    spec.seed = 17;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);
    EXPECT_GE(db->heap().num_pages(), 4 * eo.buffer_pool_pages);
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<MicroBenchDb> db;
};

/// Drains `path` through `stack` after `warm` batches; returns the rows of
/// the counted batches and sets `*allocs` to their heap allocations.
uint64_t CountSteadyBatches(AccessPath* path, AccountingStack* stack, int warm,
                            uint64_t* allocs) {
  path->SetExecContext(&stack->ctx());
  EXPECT_TRUE(path->Open().ok());
  TupleBatch batch;
  for (int i = 0; i < warm; ++i) EXPECT_TRUE(path->NextBatch(&batch));
  const uint64_t before = AllocCount();
  uint64_t rows = 0;
  while (path->NextBatch(&batch)) rows += batch.size();
  *allocs = AllocCount() - before;
  path->Close();
  return rows;
}

// The per-row look-up accounts a page in the query's private pool and in
// the engine pool it mirrors into, with no pin. Once both pools are full, a
// serial Index Scan's batches allocate nothing: a miss reuses the evicted
// page's frame, and a shard that reaches the index file late installs the
// page-map array the pool made for it. Measured: 0 allocations for 12,948
// rows.
TEST_F(AllocationRegression, IndexScanLookupsThroughFullPoolsAllocateNothing) {
  SmallPoolDb small;
  const ScanPredicate pred = small.db->PredicateForSelectivity(0.5);
  AccountingStack stack(small.engine.get(), &small.engine->pool());
  IndexScan scan(&small.db->index(), pred);
  uint64_t allocs = 0;
  const uint64_t rows = CountSteadyBatches(&scan, &stack, 2, &allocs);
  ASSERT_GT(rows, 10u * kDefaultBatchSize) << "loop too short";
  const BufferPoolStats pool = stack.pool().stats();
  EXPECT_GT(pool.misses, 2 * pool.hits) << "the pool is not under pressure";
  EXPECT_EQ(allocs, 0u) << "index look-ups hit the heap (" << rows
                        << " rows)";
  EXPECT_EQ(small.engine->pool().pinned_pages(), 0u);
}

// A Switch Scan's index phase keeps no set of produced TIDs: the index
// position where it stops is the post-switch exclusion. So its steady-state
// batches allocate nothing, like an Index Scan's. Measured: 0 allocations
// for 12,948 rows (a hash set of produced TIDs took 3, one per doubling).
TEST_F(AllocationRegression, SwitchScanIndexPhaseAllocatesNothing) {
  SmallPoolDb small;
  const ScanPredicate pred = small.db->PredicateForSelectivity(0.5);
  AccountingStack stack(small.engine.get(), &small.engine->pool());
  SwitchScanOptions options;
  options.estimated_cardinality = 1u << 30;  // Never switches.
  SwitchScan scan(&small.db->index(), pred, options);
  uint64_t allocs = 0;
  const uint64_t rows = CountSteadyBatches(&scan, &stack, 2, &allocs);
  EXPECT_FALSE(scan.switched());
  ASSERT_GT(rows, 10u * kDefaultBatchSize) << "loop too short";
  EXPECT_EQ(allocs, 0u) << allocs << " allocations for " << rows
                        << " index-phase rows";
}

// A serial unordered Sort Scan streams its heap phase into the caller's
// batch, so it buffers no row: once the pool and the batch are warm, a fresh
// scan's Open, drain and Close allocate only the sorted TID vector and the
// two counting-sort buffers, however many rows it produces. Measured: 3
// allocations per cycle at 100% (30,000 rows) and at 25%; a scan that
// buffered its rows at Open allocated 30,034 times at 100% (7,491 at 25%).
TEST_F(AllocationRegression, UnorderedSortScanAllocatesNoRowStorage) {
  TupleBatch batch;
  auto cycle_allocs = [&](double sel, uint64_t* rows) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    {
      SortScan warmer(&db_->index(), pred);  // Faults the pages in.
      EXPECT_TRUE(warmer.Open().ok());
      while (warmer.NextBatch(&batch)) {
      }
      warmer.Close();
    }
    SortScan scan(&db_->index(), pred);
    const uint64_t before = AllocCount();
    EXPECT_TRUE(scan.Open().ok());
    *rows = 0;
    while (scan.NextBatch(&batch)) *rows += batch.size();
    scan.Close();
    return AllocCount() - before;
  };
  uint64_t all_rows = 0;
  uint64_t quarter_rows = 0;
  const uint64_t all = cycle_allocs(1.0, &all_rows);
  const uint64_t quarter = cycle_allocs(0.25, &quarter_rows);
  EXPECT_EQ(all_rows, 30000u);
  EXPECT_GT(quarter_rows, 5000u);
  EXPECT_LT(quarter_rows, 10000u);
  EXPECT_EQ(all, quarter) << "allocations grew with the row count";
  EXPECT_LE(all, 3u) << all << " allocations for " << all_rows << " rows";
}

// A streamed query hands each batch to its consumer and gets the one the
// consumer is done with back (ResultStream), so once the stream's few
// batches are warm the executor decodes into warm rows. A whole streamed
// query (submit, drain, Take) allocates the rows of at most window + 2 cold
// batches (the queue, the executor's and the consumer's: how many of them
// start before the first one comes back depends on thread timing) plus a
// per-query constant, however many rows it streams. Measured in a Release
// build: 5,244 / 5,242 allocations for a serial SortScan streaming 30,000 /
// 15,000 rows (FullScan: 5,240 / 5,238); a stream that handed the
// executor's batch over and started the next one cold allocated 30,177 /
// 15,154 (FullScan: 30,143 / 15,122).
TEST_F(AllocationRegression, StreamedQueryAllocatesNoRowStorage) {
  QueryEngine qe(engine_.get(), QueryEngineOptions{});
  Session session(&qe);
  TupleBatch batch;
  auto streamed_allocs = [&](PathKind kind, double sel, uint64_t* rows) {
    auto run = [&] {
      QueryHandle handle = session.Query()
                               .Table(&db_->index())
                               .Predicate(db_->PredicateForSelectivity(sel))
                               .Policy(kind)
                               .Stream()
                               .Submit();
      *rows = 0;
      while (handle.NextBatch(&batch)) *rows += batch.size();
      EXPECT_TRUE(handle.Take().status.ok());
    };
    run();  // Warm-up: pool frames, page tables, the consumer's batch.
    const uint64_t before = AllocCount();
    run();
    return AllocCount() - before;
  };
  for (const PathKind kind : {PathKind::kSortScan, PathKind::kFullScan}) {
    uint64_t all_rows = 0;
    uint64_t half_rows = 0;
    const uint64_t all = streamed_allocs(kind, 1.0, &all_rows);
    const uint64_t half = streamed_allocs(kind, 0.5, &half_rows);
    EXPECT_EQ(all_rows, 30000u);
    EXPECT_GT(half_rows, 10000u);
    EXPECT_LT(half_rows, 20000u);
    const uint64_t bound =
        (ResultStream::kWindowBatches + 2) * (kDefaultBatchSize + 1) + 500;
    EXPECT_LT(all, bound) << all << " allocations for " << all_rows;
    EXPECT_LT(half, bound) << half << " allocations for " << half_rows;
  }
}

// The parallel scan's pooled batches reach steady state across Open cycles:
// after warm cycles, a whole drain cycle performs no cold acquire — every
// batch the kernels emit comes warm off the engine's free list, and every
// batch goes home (none leaked, none discarded by the NextBatch hand-off).
// The stabilization loop tolerates scheduling skew in how many batches are
// in flight at once; the pool's high-water mark is bounded by the cycle's
// total batch count, so two consecutive all-warm cycles must appear.
// Recycling is invisible to the meters: every cycle's simulated cost equals
// the cold cycle 0's, bit for bit.
TEST_F(AllocationRegression, ParallelScanCyclesReachZeroColdAcquires) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto par =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
  const BatchPoolStats base = engine_->batch_pool().stats();

  CostSnapshot cold;
  uint64_t prev_cold = 0;
  int warm_cycles = 0;
  for (int cycle = 0; cycle < 25 && warm_cycles < 2; ++cycle) {
    std::multiset<int64_t> got;
    const CostSnapshot snap = MeasuredRun(par.get(), &got);
    ASSERT_EQ(got, oracle) << "cycle " << cycle;
    if (cycle == 0) {
      cold = snap;
    } else {
      snap.ExpectBitIdentical(cold, "warm cycle vs cold cycle 0");
    }

    const BatchPoolStats s = Since(engine_->batch_pool().stats(), base);
    EXPECT_EQ(s.releases, s.acquires) << "batches leaked in cycle " << cycle;
    EXPECT_EQ(s.sheds, 0u) << "unquota'd pool shed storage";
    if (cycle > 0 && s.cold_acquires() == prev_cold) {
      ++warm_cycles;
    } else {
      warm_cycles = 0;
    }
    prev_cold = s.cold_acquires();
  }
  EXPECT_EQ(warm_cycles, 2) << "pool never reached all-warm steady state";
  const BatchPoolStats s = Since(engine_->batch_pool().stats(), base);
  EXPECT_GT(s.reuses, 0u);
  EXPECT_GT(s.fresh_batches, 0u);
  EXPECT_LE(s.fresh_batches, s.acquires);
}

// A fresh scan per query (the shape of the TPC-H driver) starts warm: the
// batches come from the engine's pool, which outlives every scan. Each fresh
// dop-2 full scan is built, drained, closed and destroyed; once the pool has
// warmed, a whole fresh scan stays under one allocation per 64 rows — its
// own plan, stacks and threads, no batch storage. Measured: 136 allocations
// for 30,000 rows. A per-scan pool allocates every row slot again (about
// one allocation per row), so no fresh scan ever gets under the bound.
// Warm-up takes more than one scan when a storage that only held a morsel's
// short tail batch is next handed a full one (960 slot allocations); the
// loop therefore asks for two consecutive fresh scans under the bound, as
// the cycle tests above ask for two all-warm cycles. The consumer's carry
// batch persists across the scans, as an operator's would: the hand-off
// swaps storage with it, and a cold carry batch would feed the pool a cold
// storage each scan.
TEST_F(AllocationRegression,
       FreshParallelScanOnWarmEngineAllocatesNoBatchStorage) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  TupleBatch batch;
  uint64_t allocs = 0;
  uint64_t rows = 0;
  int warm_scans = 0;
  for (int scan = 0; scan < 25 && warm_scans < 2; ++scan) {
    const uint64_t before = AllocCount();
    rows = 0;
    {
      auto par =
          MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
      ASSERT_TRUE(par->Open().ok());
      while (par->NextBatch(&batch)) rows += batch.size();
      par->Close();
    }
    allocs = AllocCount() - before;
    ASSERT_EQ(rows, 30000u);
    warm_scans = scan > 0 && allocs * 64 < rows ? warm_scans + 1 : 0;
  }
  EXPECT_EQ(warm_scans, 2) << "the last fresh scan made " << allocs
                           << " allocations for " << rows << " rows";
}

// A parallel scan queues at most its window ahead of a lagging consumer, on
// whatever scheduler its context hands out, so a slow consumer cannot pile
// the whole result into a batch pool. The consumer takes one batch and
// stalls; the morsels past its own park once the window is full, and the
// rest of the result still arrives. (Only an upper bound is checked: a slow
// host may produce less.)
TEST_F(AllocationRegression, LaggingConsumerQueuesAtMostTheWindow) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  // Returns the batches `pool` created while the consumer held its first
  // batch and slept.
  auto lag = [&](const ExecContext& ctx, BatchPool* pool) {
    auto par =
        MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(1));
    par->SetExecContext(&ctx);
    const BatchPoolStats base = pool->stats();
    EXPECT_TRUE(par->Open().ok());
    TupleBatch batch;
    EXPECT_TRUE(par->NextBatch(&batch));
    uint64_t rows = batch.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t created = Since(pool->stats(), base).fresh_batches;
    while (par->NextBatch(&batch)) rows += batch.size();
    par->Close();
    EXPECT_EQ(rows, 30000u);
    return created;
  };
  // The window, the consumer's pending batch, the worker's batch in hand
  // and the consumer's own storage swapped in at the first hand-off.
  constexpr uint64_t kBound = ParallelScan::kQueuedBatchesPerWorker + 3;

  const ExecContext engine_ctx = EngineContext(engine_.get());
  EXPECT_LE(lag(engine_ctx, &engine_->batch_pool()), kBound)
      << "the worker ran ahead of the window on the engine's scheduler";

  // The same window on a scheduler the scan's context supplies (its own
  // cold batch pool keeps the count independent of the run above).
  TaskScheduler supplied(2);
  BatchPool pool;
  ExecContext supplied_ctx = engine_ctx;
  supplied_ctx.scheduler = &supplied;
  supplied_ctx.batch_pool = &pool;
  EXPECT_LE(lag(supplied_ctx, &pool), kBound)
      << "the worker ran ahead of the window on a supplied scheduler";
}

// The same steady state for the Smooth kernel, whose morsel scans spill the
// rows of regions that overflow the caller's batch: at 100% selectivity the
// seeded regions span whole morsels, so most rows go through spill batches.
// Those come from the engine's batch pool and go home warm, so spilling adds
// no cold acquire once the pool has grown to the cycle's high-water mark.
TEST_F(AllocationRegression, ParallelSmoothScanCyclesReachZeroColdAcquires) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  auto par =
      MakeParallelSmoothScan(&db_->index(), pred, SmoothScanOptions(), Par(2));
  ASSERT_NE(par, nullptr);
  const BatchPoolStats base = engine_->batch_pool().stats();

  uint64_t prev_cold = 0;
  int warm_cycles = 0;
  for (int cycle = 0; cycle < 25 && warm_cycles < 2; ++cycle) {
    ASSERT_TRUE(par->Open().ok());
    std::multiset<int64_t> got;
    TupleBatch batch;
    while (par->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        got.insert(batch.row(i)[0].AsInt64());
      }
    }
    par->Close();
    ASSERT_EQ(got, oracle) << "cycle " << cycle;
    // Regions overflowed the batch: more mode-2 rows than one batch holds.
    ASSERT_GT(par->kernel()->smooth_stats().card_mode2, kDefaultBatchSize);

    const BatchPoolStats s = Since(engine_->batch_pool().stats(), base);
    EXPECT_EQ(s.releases, s.acquires) << "batches leaked in cycle " << cycle;
    EXPECT_EQ(s.sheds, 0u) << "unquota'd pool shed storage";
    if (cycle > 0 && s.cold_acquires() == prev_cold) {
      ++warm_cycles;
    } else {
      warm_cycles = 0;
    }
    prev_cold = s.cold_acquires();
  }
  EXPECT_EQ(warm_cycles, 2) << "pool never reached all-warm steady state";
  EXPECT_GT(Since(engine_->batch_pool().stats(), base).reuses, 0u);
}

// Regression for the partial-consumer hand-off (`pending_`): a consumer
// that stops mid-stream must not strand pooled batches — Close drains and
// releases everything, so reopening stays warm. The old code path
// (`pending_ = TupleBatch()`) discarded the recycled storage instead.
TEST_F(AllocationRegression, AbandonedPendingBatchReturnsToPool) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  auto par =
      MakeParallelFullScan(&db_->heap(), pred, FullScanOptions(), Par(2));
  const BatchPoolStats base = engine_->batch_pool().stats();
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(par->Open().ok());
    TupleBatch batch;
    // Consume a couple of batches, then walk away mid-stream.
    ASSERT_TRUE(par->NextBatch(&batch));
    ASSERT_TRUE(par->NextBatch(&batch));
    par->Close();
    const BatchPoolStats s = Since(engine_->batch_pool().stats(), base);
    EXPECT_EQ(s.releases, s.acquires)
        << "abandoned cycle " << cycle << " stranded pooled batches";
  }
}

/// Three var-width tables for the row-materialization regressions. Every
/// string is longer than std::string's inline buffer, so a row slot that
/// lost its storage would have to allocate to take the next row.
struct VarWidthDb {
  static constexpr int kLines = 16384;
  static constexpr int kParts = 2048;
  static constexpr int kGroups = 64;

  VarWidthDb() {
    EngineOptions eo;
    eo.buffer_pool_pages = 4096;  // Every table stays resident.
    engine = std::make_unique<Engine>(eo);
    lines = std::make_unique<HeapFile>(
        engine.get(), "lines",
        Schema({{"l_key", ValueType::kInt64},
                {"l_part", ValueType::kInt64},
                {"l_note", ValueType::kString},
                {"l_price", ValueType::kDouble},
                {"l_date", ValueType::kDate}}));
    parts = std::make_unique<HeapFile>(
        engine.get(), "parts",
        Schema({{"p_key", ValueType::kInt64},
                {"p_group", ValueType::kInt64},
                {"p_name", ValueType::kString}}));
    groups = std::make_unique<HeapFile>(
        engine.get(), "groups", Schema({{"g_key", ValueType::kInt64},
                                        {"g_label", ValueType::kString}}));
    for (int i = 0; i < kLines; ++i) {
      EXPECT_TRUE(lines
                      ->Append({Value::Int64(i), Value::Int64(i * 7 % kParts),
                                Value::String(Text('n', i)),
                                Value::Double(i % 64), Value::Date(i % 365)})
                      .ok());
    }
    for (int i = 0; i < kParts; ++i) {
      EXPECT_TRUE(parts
                      ->Append({Value::Int64(i), Value::Int64(i % kGroups),
                                Value::String(Text('p', i))})
                      .ok());
    }
    for (int i = 0; i < kGroups; ++i) {
      EXPECT_TRUE(
          groups->Append({Value::Int64(i), Value::String(Text('g', i))}).ok());
    }
    parts_pk =
        std::make_unique<BPlusTree>(engine.get(), "parts_pk", parts.get(), 0);
    parts_pk->BulkBuild();
  }

  /// 16 to 39 characters: past the inline buffer, and varying per row.
  static std::string Text(char c, int i) {
    return std::string(16 + i % 24, static_cast<char>(c + i % 7));
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<HeapFile> lines;
  std::unique_ptr<HeapFile> parts;
  std::unique_ptr<HeapFile> groups;
  std::unique_ptr<BPlusTree> parts_pk;
};

/// Opens `op`, drains it into one reused batch and closes it. Returns the
/// rows produced; `allocs` (if set) receives the heap allocations made by
/// the NextBatch loop alone, after Open.
uint64_t DrainCounting(Operator* op, TupleBatch* batch,
                       uint64_t* allocs = nullptr) {
  EXPECT_TRUE(op->Open().ok());
  const uint64_t before = AllocCount();
  uint64_t rows = 0;
  while (op->NextBatch(batch)) rows += batch->size();
  if (allocs != nullptr) *allocs = AllocCount() - before;
  op->Close();
  return rows;
}

// Var-width decode is allocation-free too: after one warm-up drain, a Full
// Scan over a STRING schema refills the same warm slots, and SetString
// reuses each slot's string buffer. Measured: 0 allocations in 16 batches.
TEST_F(AllocationRegression, VarWidthFullScanAllocatesNothingPerBatch) {
  VarWidthDb db;
  ScanOp scan(std::make_unique<FullScan>(db.lines.get(), ScanPredicate{}));
  TupleBatch batch;
  ASSERT_EQ(DrainCounting(&scan, &batch), uint64_t{VarWidthDb::kLines});
  uint64_t allocs = 0;
  ASSERT_EQ(DrainCounting(&scan, &batch, &allocs),
            uint64_t{VarWidthDb::kLines});
  EXPECT_EQ(allocs, 0u) << "var-width scan loop hit the heap";
}

// Joins build each output row in a warm slot: Scan -> IndexNLJoin ->
// HashJoin -> Filter over var-width tables, after one warm-up run, stays
// under one allocation per 64 output rows. Measured: 0 allocations for 8192
// output rows; the bound leaves room for a match run that overflows a batch
// (the INLJ's pending_ buffer).
TEST_F(AllocationRegression, VarWidthJoinPipelineAllocatesUnderOnePer64Rows) {
  VarWidthDb db;
  auto scan = std::make_unique<ScanOp>(
      std::make_unique<FullScan>(db.lines.get(), ScanPredicate{}));
  // lines(5) ++ parts(3): the part's group is column 6.
  auto inlj = std::make_unique<IndexNestedLoopJoinOp>(std::move(scan),
                                                      db.parts_pk.get(), 1);
  auto groups = std::make_unique<ScanOp>(
      std::make_unique<FullScan>(db.groups.get(), ScanPredicate{}));
  auto hash = std::make_unique<HashJoinOp>(db.engine.get(), std::move(inlj),
                                           std::move(groups), 6, 0);
  FilterOp filter(db.engine.get(), std::move(hash), [](const Tuple& t) {
    return t[3].AsDouble() < 32.0 && t[9].AsString().size() >= 16;
  });
  TupleBatch batch;
  const uint64_t rows = DrainCounting(&filter, &batch);
  ASSERT_EQ(rows, uint64_t{VarWidthDb::kLines / 2});
  uint64_t allocs = 0;
  ASSERT_EQ(DrainCounting(&filter, &batch, &allocs), rows);
  EXPECT_LT(allocs * 64, rows) << allocs << " allocations for " << rows
                               << " joined rows";
}

// ---------------------------------------------------------------------------
// Cost differentials: recycling and governance never change simulated cost.
// ---------------------------------------------------------------------------

// A serial Smooth Scan spills the rows of regions that overflow the caller's
// batch into batches borrowed from the query's pool, so its spill storage
// counts toward the query's memory scope: at 100% the scope records a peak,
// and under a 1-byte quota every charge breaches and the pool sheds —
// with the same result multiset and the same simulated cost as ungoverned.
TEST_F(MemGovernanceTest, SerialSmoothSpillsChargeTheQueryScope) {
  QuerySpec spec;
  spec.index = &db_->index();
  spec.predicate = db_->PredicateForSelectivity(1.0);
  spec.kind = PathKind::kSmoothScan;
  spec.collect_keys = true;
  const std::multiset<int64_t> oracle = Oracle(spec.predicate);

  auto run = [&](uint64_t quota) {
    QueryEngineOptions qeo;
    qeo.query_quota_bytes = quota;
    QueryEngine qe(engine_.get(), qeo);
    Session session(&qe);
    engine_->ColdRestart();
    QueryResult r = session.Query().FromSpec(spec).Run();
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.metrics.parallel);
    EXPECT_EQ(std::multiset<int64_t>(r.keys.begin(), r.keys.end()), oracle)
        << "quota " << quota;
    return r.metrics;
  };
  const QueryMetrics free_run = run(UINT64_MAX);
  EXPECT_GT(free_run.mem_peak_bytes, 0u) << "spills were not charged";
  EXPECT_EQ(free_run.mem_quota_breaches, 0u);
  const QueryMetrics governed = run(1);
  EXPECT_GT(governed.mem_quota_breaches, 0u);
  EXPECT_EQ(governed.io_requests, free_run.io_requests);
  EXPECT_EQ(governed.pages_read, free_run.pages_read);
  EXPECT_EQ(governed.io_time, free_run.io_time);  // Exact, not NEAR.
  EXPECT_EQ(governed.cpu_time, free_run.cpu_time);
  EXPECT_EQ(governed.sim_time, free_run.sim_time);
}

// The full governance stack — global broker under permanent pressure (the
// engine's buffer-pool frames alone exceed the budget) plus a tiny per-query
// quota — must leave every per-query simulated cost bit-identical to the
// ungoverned engine, at admission caps 1, 2 and 8 with serial and parallel
// plans in the mix. Governance sheds batch storage; it never touches the
// simulated meters and never fails a query.
TEST_F(MemGovernanceTest, BrokerOnOffCostsBitIdenticalAcrossCaps) {
  constexpr PathKind kKinds[] = {PathKind::kFullScan, PathKind::kIndexScan,
                                 PathKind::kSmoothScan};
  constexpr double kSels[] = {0.001, 0.5};
  constexpr uint32_t kSpecDops[] = {0, 2, 8};

  std::vector<QuerySpec> specs;
  std::vector<std::multiset<int64_t>> oracles;
  for (const PathKind kind : kKinds) {
    for (const double sel : kSels) {
      for (const uint32_t dop : kSpecDops) {
        QuerySpec spec;
        spec.index = &db_->index();
        spec.predicate = db_->PredicateForSelectivity(sel);
        spec.kind = kind;
        spec.estimate = 100;
        spec.dop = dop;
        spec.collect_keys = true;
        specs.push_back(spec);
        oracles.push_back(Oracle(spec.predicate));
      }
    }
  }

  // Reference: the ungoverned engine, serialized admission.
  std::vector<CostSnapshot> reference;
  {
    QueryEngineOptions qeo;
    qeo.max_admitted = 1;
    QueryEngine qe(engine_.get(), qeo);
    Session session(&qe);
    for (size_t i = 0; i < specs.size(); ++i) {
      const QueryResult r = session.Query().FromSpec(specs[i]).Run();
      ASSERT_TRUE(r.status.ok());
      const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
      ASSERT_EQ(got, oracles[i]) << "reference spec " << i;
      CostSnapshot snap;
      snap.io.io_requests = r.metrics.io_requests;
      snap.io.random_ios = r.metrics.random_ios;
      snap.io.seq_ios = r.metrics.seq_ios;
      snap.io.pages_read = r.metrics.pages_read;
      snap.io.io_time = r.metrics.io_time;
      snap.cpu = r.metrics.cpu_time;
      snap.tuples = r.metrics.tuples;
      reference.push_back(snap);
      EXPECT_EQ(r.metrics.mem_quota_breaches, 0u) << "ungoverned engine";
    }
  }

  // Budget sits a hair above the engine's buffer-pool frame charge, so warm
  // exec batches repeatedly push the broker over it (pressure episodes →
  // shedding) and back; the per-query quota is below one batch, so every
  // warm charge is also a breach. Maximal governance activity.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes =
      uint64_t{engine_->options().buffer_pool_pages} *
          engine_->options().page_size +
      64 * 1024;
  for (const uint32_t cap : {1u, 2u, 8u}) {
    MemoryBroker broker(bo);
    QueryEngineOptions qeo;
    qeo.max_admitted = cap;
    qeo.broker = &broker;
    qeo.query_quota_bytes = 4 * 1024;  // Below one batch: every charge breaches.
    QueryEngine qe(engine_.get(), qeo);
    Session session(&qe, {.max_outstanding = 32});
    ASSERT_FALSE(broker.UnderPressure());

    std::vector<QueryHandle> handles;
    for (const QuerySpec& spec : specs) {
      handles.push_back(session.Query().FromSpec(spec).Submit());
    }
    uint64_t breaches = 0;
    uint64_t peak = 0;
    for (size_t i = 0; i < handles.size(); ++i) {
      const QueryResult& r = handles[i].Wait();
      ASSERT_TRUE(r.status.ok()) << "governance must never fail a query";
      const std::multiset<int64_t> got(r.keys.begin(), r.keys.end());
      EXPECT_EQ(got, oracles[i]) << "spec " << i << " cap " << cap;
      reference[i].ExpectBitIdentical(r.metrics, "broker on vs off");
      breaches += r.metrics.mem_quota_breaches;
      peak = std::max(peak, r.metrics.mem_peak_bytes);
    }
    // Governance was visibly active, not vacuously satisfied: parallel
    // queries charged exec memory, breached the tiny quota, and pushed the
    // broker into at least one pressure episode.
    EXPECT_GT(breaches, 0u) << "cap " << cap;
    EXPECT_GT(peak, 0u) << "cap " << cap;
    EXPECT_GT(broker.pressure_epoch(), 0u) << "cap " << cap;
  }
}

// ---------------------------------------------------------------------------
// Pressure responses: spill and shed, deterministically, losing nothing.
// ---------------------------------------------------------------------------

TEST_F(MemGovernanceTest, ResultCachePressureSpillIsDeterministicAndLossless) {
  auto run_once = [&](MemoryBroker* broker) {
    ResultCacheOptions rco;
    rco.broker = broker;
    rco.bytes_per_tuple = 128;
    ResultCache cache({100, 200, 300}, engine_.get(), rco);
    // Interleave inserts across all four partitions so the pressure scan
    // always has a "furthest" partition distinct from the insert target.
    std::vector<std::pair<int64_t, Tid>> inserted;
    for (uint16_t i = 0; i < 24; ++i) {
      const int64_t key = (i % 4) * 100 + 50;  // 50, 150, 250, 350, ...
      const Tid tid{static_cast<PageId>(i / 4), static_cast<SlotId>(i % 4)};
      cache.Insert(key, tid, Tuple{Value::Int64(key), Value::Int64(i)});
      inserted.emplace_back(key, tid);
    }
    // Every tuple must come back intact, spilled partitions restored.
    for (const auto& [key, tid] : inserted) {
      const std::optional<Tuple> t = cache.Take(key, tid);
      if (!t.has_value()) {
        ADD_FAILURE() << "lost tuple key=" << key;
        continue;
      }
      EXPECT_EQ((*t)[0].AsInt64(), key);
    }
    return cache.spill_stats();
  };

  // Control: no pressure, no pressure spills.
  {
    MemoryBroker roomy{MemoryBrokerOptions{}};
    const ResultCacheStats stats = run_once(&roomy);
    EXPECT_EQ(stats.pressure_spills, 0u);
    EXPECT_EQ(stats.spills, 0u);
  }

  // Under permanent pressure the cache spills its furthest partitions —
  // same insert sequence, same spill decisions, run after run.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes = 4 * 1024;
  MemoryBroker broker(bo);
  MemoryBroker::Consumer hog = broker.Register(MemoryClass::kOther, "hog");
  hog.Charge(8 * 1024);
  ASSERT_TRUE(broker.UnderPressure());
  const ResultCacheStats first = run_once(&broker);
  EXPECT_GT(first.pressure_spills, 0u);
  EXPECT_GT(first.spilled_tuples, 0u);
  EXPECT_EQ(first.restored_tuples, first.spilled_tuples)
      << "every spilled tuple must restore on Take";
  const ResultCacheStats second = run_once(&broker);
  EXPECT_EQ(second.pressure_spills, first.pressure_spills)
      << "pressure spilling must be deterministic";
  EXPECT_EQ(second.spilled_tuples, first.spilled_tuples);
}

TEST_F(MemGovernanceTest, SharedScanShedsDriftUnderPressureWithoutLoss) {
  const ScanPredicate pred = db_->PredicateForSelectivity(1.0);
  const std::multiset<int64_t> oracle = Oracle(pred);
  const uint64_t chunk_bytes =
      uint64_t{8} * engine_->options().page_size;

  auto run_once = [&](MemoryBroker* broker, uint64_t* max_window_bytes) {
    SharedScanOptions so;
    so.chunk_pages = 8;
    so.drift_chunks = 8;
    so.broker = broker;
    ScanSharingCoordinator coordinator(engine_.get(), so);
    SharedScanPath path(&coordinator, &db_->heap(), pred);
    EXPECT_TRUE(path.Open().ok());
    std::multiset<int64_t> got;
    TupleBatch batch;
    while (path.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        got.insert(batch.row(i)[0].AsInt64());
      }
      if (broker != nullptr && max_window_bytes != nullptr) {
        *max_window_bytes =
            std::max(*max_window_bytes,
                     broker->class_bytes(MemoryClass::kSharedScanWindow));
      }
    }
    path.Close();
    EXPECT_EQ(got, oracle);
    return coordinator.GroupFor(&db_->heap())->stats();
  };

  // Control: no broker, the full drift window, no sheds.
  {
    const SharedScanGroupStats stats = run_once(nullptr, nullptr);
    EXPECT_EQ(stats.drift_sheds, 0u);
  }

  // Under pressure the producer is clamped to one chunk of drift: the
  // pinned window stays at most two chunks (one held + one ahead), sheds
  // are counted, and the consumer still completes its full lap.
  MemoryBrokerOptions bo;
  bo.global_budget_bytes = 1024;
  MemoryBroker broker(bo);
  MemoryBroker::Consumer hog = broker.Register(MemoryClass::kOther, "hog");
  hog.Charge(64 * 1024);
  ASSERT_TRUE(broker.UnderPressure());
  uint64_t max_window_bytes = 0;
  const SharedScanGroupStats stats = run_once(&broker, &max_window_bytes);
  EXPECT_GT(stats.drift_sheds, 0u);
  EXPECT_GT(stats.chunks_produced, 0u);
  EXPECT_LE(max_window_bytes, 2 * chunk_bytes)
      << "clamped producer pinned more than held + one ahead";
  EXPECT_EQ(broker.class_bytes(MemoryClass::kSharedScanWindow), 0u)
      << "window charges must fully uncharge after the lap";
}

}  // namespace
}  // namespace smoothscan
