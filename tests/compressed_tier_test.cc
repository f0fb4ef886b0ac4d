// Compressed read-tier testing: the run/RLE-encoded sibling extent must be a
// pure performance artifact — every scan over it produces exactly the
// multiset a heap FullScan produces, for strictly fewer simulated page
// fetches. Covers: the serial / shared / morsel-parallel compressed policies
// across a selectivity sweep, zone-map block skipping on a clustered key,
// index-only emission and CompressedCountRange, rebuild after a publish, the
// heap fallback for a table with no extent, pin/eviction hygiene under the
// shared buffer-pool mirror, and DOP 1/2/8 bit-identical parallel accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "access/full_scan.h"
#include "compress/compressed_scan.h"
#include "engine/session.h"
#include "sharing/scan_sharing.h"
#include "workload/micro_bench.h"
#include "write/table_writer.h"

namespace smoothscan {
namespace {

/// Column-0 multiset plus an all-column checksum: c0 is the generated PK, so
/// the multiset pins *which* rows were produced and the checksum pins that
/// every payload column decoded to the right value.
struct ScanDigest {
  std::multiset<int64_t> keys;
  int64_t checksum = 0;

  bool operator==(const ScanDigest& o) const {
    return keys == o.keys && checksum == o.checksum;
  }
};

ScanDigest DrainDigest(AccessPath* path) {
  EXPECT_TRUE(path->Open().ok());
  ScanDigest d;
  TupleBatch batch;
  while (path->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& row = batch.row(i);
      d.keys.insert(row[0].AsInt64());
      for (const Value& v : row) d.checksum += v.AsInt64();
    }
  }
  path->Close();
  return d;
}

Tuple MakeRow(const Schema& schema, int64_t c1, int64_t c2) {
  Tuple t(schema.num_columns());
  t[0] = Value::Int64(c1);
  t[1] = Value::Int64(c2);
  for (size_t c = 2; c < schema.num_columns(); ++c) {
    t[c] = Value::Int64(static_cast<int64_t>(c));
  }
  return t;
}

ScanDigest OracleDigest(const HeapFile& heap, const ScanPredicate& pred) {
  ScanDigest d;
  heap.ForEachDirect([&](Tid, const Tuple& t) {
    if (!pred.Matches(t)) return;
    d.keys.insert(t[0].AsInt64());
    for (const Value& v : t) d.checksum += v.AsInt64();
  });
  return d;
}

class CompressedTierTest : public ::testing::Test {
 protected:
  CompressedTierTest() {
    EngineOptions eo;
    eo.buffer_pool_pages = 1024;  // Holds heap + sibling comfortably.
    engine_ = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 30000;
    spec.value_max = 4000;  // Narrow domain: every column FOR-packs.
    spec.seed = 23;
    db_ = std::make_unique<MicroBenchDb>(engine_.get(), spec);
    map_ = std::make_unique<CompressedExtentMap>(engine_.get());
    extent_ = map_->Enable(db_->mutable_heap(), MicroBenchDb::kIndexedColumn);
  }

  /// Fresh cold accounting stack (no mirror) for one measured run.
  struct Measured {
    ScanDigest digest;
    IoStats io;
    double cpu = 0.0;
  };
  Measured Run(AccessPath* path, AccountingStack* qctx) {
    path->SetExecContext(&qctx->ctx());
    Measured m;
    m.digest = DrainDigest(path);
    m.io = qctx->disk().stats();
    m.cpu = qctx->cpu().time();
    return m;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<MicroBenchDb> db_;
  std::unique_ptr<CompressedExtentMap> map_;
  CompressedExtentRef extent_;
};

TEST_F(CompressedTierTest, ExtentShrinksByAtLeast2x) {
  ASSERT_NE(extent_, nullptr);
  EXPECT_EQ(extent_->num_tuples, db_->heap().num_tuples());
  EXPECT_EQ(extent_->source_pages, db_->heap().num_pages());
  // The 10 uniform columns on [0, 4000] FOR-pack to ~2 bytes each; the
  // acceptance bar is the conservative 2x.
  EXPECT_GE(extent_->page_ratio(), 2.0);
  EXPECT_LT(extent_->num_pages(), db_->heap().num_pages() / 2);
}

TEST_F(CompressedTierTest, IneligibleSchemasAreRefused) {
  // Out-of-range key column.
  EXPECT_EQ(map_->Enable(db_->mutable_heap(), 99), nullptr);
  // Enable is idempotent per table: re-enabling returns a (fresh) extent.
  EXPECT_NE(map_->Enable(db_->mutable_heap(), MicroBenchDb::kIndexedColumn),
            nullptr);
}

// ---------- Differential: three policies x selectivity sweep ----------

TEST_F(CompressedTierTest, SerialSharedParallelMatchFullScanForFewerFetches) {
  ASSERT_NE(extent_, nullptr);
  ScanSharingCoordinator sharing(engine_.get());
  for (const double sel : {0.001, 0.02, 0.2, 1.0}) {
    const ScanPredicate pred = db_->PredicateForSelectivity(sel);
    const ScanDigest oracle = OracleDigest(db_->heap(), pred);

    AccountingStack full_ctx(engine_.get());
    FullScan full(&db_->heap(), pred);
    const Measured full_run = Run(&full, &full_ctx);
    EXPECT_EQ(full_run.digest, oracle) << "sel=" << sel;

    // Policy 1: serial compressed scan.
    AccountingStack serial_ctx(engine_.get());
    CompressedScan serial(engine_.get(), extent_, pred);
    const Measured serial_run = Run(&serial, &serial_ctx);
    EXPECT_EQ(serial_run.digest, oracle) << "sel=" << sel;
    EXPECT_LT(serial_run.io.pages_read, full_run.io.pages_read)
        << "sel=" << sel;

    // Policy 2: shared compressed scan (single consumer: one communal lap).
    AccountingStack shared_ctx(engine_.get());
    CompressedScan shared(&sharing, extent_, pred);
    const Measured shared_run = Run(&shared, &shared_ctx);
    EXPECT_EQ(shared_run.digest, oracle) << "sel=" << sel;
    EXPECT_LT(shared_run.io.pages_read, full_run.io.pages_read)
        << "sel=" << sel;

    // Policy 3: morsel-parallel compressed scan.
    AccountingStack par_ctx(engine_.get());
    ParallelScanOptions po;
    po.dop = 2;
    std::unique_ptr<ParallelScan> par = MakeParallelCompressedScan(
        engine_.get(), extent_, pred, CompressedScanOptions(), po);
    ASSERT_NE(par, nullptr);
    const Measured par_run = Run(par.get(), &par_ctx);
    EXPECT_EQ(par_run.digest, oracle) << "sel=" << sel;
    EXPECT_LT(par_run.io.pages_read, full_run.io.pages_read) << "sel=" << sel;
  }
}

TEST_F(CompressedTierTest, ResidualPredicateAppliesAfterExpansion) {
  ScanPredicate pred = db_->PredicateForSelectivity(0.5);
  pred.residual = [](const Tuple& t) { return t[3].AsInt64() % 2 == 0; };
  const ScanDigest oracle = OracleDigest(db_->heap(), pred);
  AccountingStack qctx(engine_.get());
  CompressedScan scan(engine_.get(), extent_, pred);
  EXPECT_EQ(Run(&scan, &qctx).digest, oracle);
}

// ---------- Zone-map skipping on a clustered key ----------

TEST(CompressedZoneMapTest, ClusteredKeySkipsBlocksWithoutIo) {
  Engine engine(EngineOptions{});
  HeapFile heap(&engine, "clustered", MakeIntSchema(4));
  Tuple tuple(4);
  constexpr uint64_t kTuples = 40000;
  constexpr int64_t kRun = 200;  // c1 ascends in 200-tuple runs (RLE food).
  for (uint64_t i = 0; i < kTuples; ++i) {
    tuple[0] = Value::Int64(static_cast<int64_t>(i));
    tuple[1] = Value::Int64(static_cast<int64_t>(i) / kRun);
    tuple[2] = Value::Int64(static_cast<int64_t>(i) % 7);
    tuple[3] = Value::Int64(static_cast<int64_t>(i) % 97);
    SMOOTHSCAN_CHECK(heap.Append(tuple).ok());
  }
  CompressedExtentMap map(&engine);
  CompressedExtentRef extent = map.Enable(&heap, /*key_column=*/1);
  ASSERT_NE(extent, nullptr);
  // 200-tuple runs compress the key column to a handful of RLE runs/block.
  EXPECT_GE(extent->avg_run_length(), 50.0);

  // A 1% key slice: the zone map confines the scan to a contiguous sliver of
  // blocks; everything else is skipped without a fetch.
  ScanPredicate pred;
  pred.column = 1;
  pred.lo = 100;
  pred.hi = 102;
  const ScanDigest oracle = OracleDigest(heap, pred);

  AccountingStack full_ctx(&engine);
  FullScan full(&heap, pred);
  full.SetExecContext(&full_ctx.ctx());
  EXPECT_EQ(DrainDigest(&full), oracle);

  AccountingStack qctx(&engine);
  CompressedScan scan(&engine, extent, pred);
  scan.SetExecContext(&qctx.ctx());
  EXPECT_EQ(DrainDigest(&scan), oracle);
  // ~2000-tuple blocks: the 400 matching rows live in at most 2 of ~20.
  EXPECT_GE(extent->num_pages(), 15u);
  EXPECT_LE(scan.blocks_needed(), 2u);
  // Compression ratio *times* zone-skip rate: well past the 2x bar.
  EXPECT_LT(qctx.disk().stats().pages_read * 4,
            full_ctx.disk().stats().pages_read);
}

// ---------- Index-only path ----------

TEST_F(CompressedTierTest, IndexOnlyEmitsKeysWithoutPayloadColumns) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.1);
  std::multiset<int64_t> oracle_keys;
  db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (pred.Matches(t)) {
      oracle_keys.insert(t[MicroBenchDb::kIndexedColumn].AsInt64());
    }
  });
  AccountingStack qctx(engine_.get());
  CompressedScanOptions opts;
  opts.index_only = true;
  CompressedScan scan(engine_.get(), extent_, pred, opts);
  scan.SetExecContext(&qctx.ctx());
  EXPECT_TRUE(scan.Open().ok());
  std::multiset<int64_t> keys;
  TupleBatch batch;
  while (scan.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch.row(i).size(), 1u);  // Key column only.
      keys.insert(batch.row(i)[0].AsInt64());
    }
  }
  scan.Close();
  EXPECT_EQ(keys, oracle_keys);
}

TEST_F(CompressedTierTest, CountRangeMatchesOracleAndSkipsInteriorBlocks) {
  for (const auto& [lo, hi] :
       std::vector<std::pair<int64_t, int64_t>>{{0, 1},
                                                {100, 300},
                                                {0, 4001},
                                                {3999, 4001},
                                                {5000, 6000}}) {
    uint64_t oracle = 0;
    db_->heap().ForEachDirect([&](Tid, const Tuple& t) {
      const int64_t k = t[MicroBenchDb::kIndexedColumn].AsInt64();
      if (k >= lo && k < hi) ++oracle;
    });
    AccountingStack qctx(engine_.get());
    EXPECT_EQ(CompressedCountRange(extent_, lo, hi, qctx.ctx()), oracle)
        << "[" << lo << "," << hi << ")";
    // The full-domain probe is answered from zone metadata alone: every
    // block's interval lies inside the range, so no page is fetched.
    if (lo <= 0 && hi > 4000) {
      EXPECT_EQ(qctx.disk().stats().pages_read, 0u);
    }
  }
}

// ---------- Staleness across publishes ----------

TEST(CompressedPublishTest, PublishInvalidatesThenAutoRebuildServesNewData) {
  EngineOptions eo;
  eo.buffer_pool_pages = 1024;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 4000;
  MicroBenchDb db(&engine, spec);
  TableVersionRegistry registry(&engine);
  TableWriter writer(db.mutable_heap(),
                     std::vector<BPlusTree*>{db.mutable_index()}, &registry);
  CompressedExtentMap map(&engine);
  ASSERT_NE(map.Enable(db.mutable_heap(), MicroBenchDb::kIndexedColumn),
            nullptr);
  ScanSharingCoordinator sharing(&engine);
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  qeo.sharing = &sharing;
  qeo.versions = &registry;
  qeo.compressed = &map;
  QueryEngine qe(&engine, qeo);
  Session session(&qe);

  const TableStats stats =
      TableStats::Compute(db.heap(), MicroBenchDb::kIndexedColumn);
  CostModelParams params;
  params.num_tuples = db.heap().num_tuples();
  params.tuple_size = 8192 / (db.heap().num_tuples() / db.heap().num_pages());
  const CostModel model(params);

  QuerySpec read;
  read.index = db.mutable_index();
  read.predicate = db.PredicateForSelectivity(0.5);
  read.use_chooser = true;
  read.stats = &stats;
  read.cost_model = &model;
  read.collect_keys = true;

  // Scan-bound regime over a 2x-shrunk extent: the chooser must take it.
  QueryResult before = session.Query().FromSpec(read).Run();
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.metrics.kind, PathKind::kCompressedScan);

  // Mutate: delete one matching tuple, insert two new matching ones.
  QuerySpec write;
  write.writer = &writer;
  write.write_ops.push_back(WriteOp::MakeDelete(Tid{0, 0}));
  write.write_ops.push_back(
      WriteOp::MakeInsert(MakeRow(db.heap().schema(), 1000001, 10)));
  write.write_ops.push_back(
      WriteOp::MakeInsert(MakeRow(db.heap().schema(), 1000002, 11)));
  ASSERT_TRUE(session.Query().FromSpec(write).Run().status.ok());
  // Publish at quiescence: force it by taking (and dropping) a read lease.
  registry.AcquireRead(db.heap().file_id()).Release();
  EXPECT_EQ(map.rebuilds(), 1u);

  // The rebuilt extent serves the *published* table: differential against a
  // fresh heap oracle, still on the compressed path.
  std::multiset<int64_t> oracle;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (read.predicate.Matches(t)) oracle.insert(t[0].AsInt64());
  });
  QueryResult after = session.Query().FromSpec(read).Run();
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.metrics.kind, PathKind::kCompressedScan);
  EXPECT_EQ(std::multiset<int64_t>(after.keys.begin(), after.keys.end()),
            oracle);
  EXPECT_NE(std::multiset<int64_t>(before.keys.begin(), before.keys.end()),
            oracle);
}

TEST(CompressedFallbackTest, NeverEnabledTableFallsBackToHeap) {
  EngineOptions eo;
  eo.buffer_pool_pages = 1024;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 4000;
  MicroBenchDb db(&engine, spec);
  CompressedExtentMap map(&engine);  // The table is never enabled.
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  qeo.compressed = &map;
  QueryEngine qe(&engine, qeo);
  Session session(&qe);

  QuerySpec read;
  read.index = db.mutable_index();
  read.predicate = db.PredicateForSelectivity(0.5);
  read.kind = PathKind::kCompressedScan;  // Fixed-kind: asks for the tier.
  read.collect_keys = true;

  // Graceful fallback: with no extent to read, the spec runs the heap full
  // scan over the same snapshot.
  std::multiset<int64_t> oracle;
  db.heap().ForEachDirect([&](Tid, const Tuple& t) {
    if (read.predicate.Matches(t)) oracle.insert(t[0].AsInt64());
  });
  QueryResult result = session.Query().FromSpec(read).Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.kind, PathKind::kFullScan);
  EXPECT_EQ(std::multiset<int64_t>(result.keys.begin(), result.keys.end()),
            oracle);
}

// ---------- Pin / eviction hygiene under the shared-pool mirror ----------

TEST_F(CompressedTierTest, MirroredRunsLeaveNoPinsBehind) {
  // Shared pool smaller than heap + sibling: mirrored compressed pages must
  // pin only for the access's lifetime, or eviction (and the rebuild's
  // EvictFile) CHECK-aborts on a pinned frame.
  QueryEngineOptions qeo;
  qeo.max_admitted = 4;
  qeo.compressed = map_.get();
  QueryEngine qe(engine_.get(), qeo);
  Session session(&qe);
  QuerySpec read;
  read.index = db_->mutable_index();
  read.predicate = db_->PredicateForSelectivity(0.3);
  read.kind = PathKind::kCompressedScan;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(session.Query().FromSpec(read).Submit());
  }
  for (QueryHandle& h : handles) {
    EXPECT_EQ(h.Metrics().kind, PathKind::kCompressedScan);
  }
  // Every frame unpinned: a full rebuild evicts the sibling wholesale.
  EXPECT_NE(map_->Rebuild(db_->heap().file_id()), nullptr);
  engine_->pool().FlushAll();
}

// ---------- Parallel morsel decomposition: DOP-invariance ----------

TEST_F(CompressedTierTest, ParallelAccountingBitIdenticalAtDop128) {
  const ScanPredicate pred = db_->PredicateForSelectivity(0.2);
  AccountingStack serial_ctx(engine_.get());
  CompressedScan serial(engine_.get(), extent_, pred);
  const Measured base = Run(&serial, &serial_ctx);

  for (const uint32_t dop : {1u, 2u, 8u}) {
    AccountingStack qctx(engine_.get());
    ParallelScanOptions po;
    po.dop = dop;
    std::unique_ptr<ParallelScan> par = MakeParallelCompressedScan(
        engine_.get(), extent_, pred, CompressedScanOptions(), po);
    ASSERT_NE(par, nullptr);
    const Measured run = Run(par.get(), &qctx);
    EXPECT_EQ(run.digest, base.digest) << "dop=" << dop;
    EXPECT_EQ(run.io.io_requests, base.io.io_requests) << "dop=" << dop;
    EXPECT_EQ(run.io.random_ios, base.io.random_ios) << "dop=" << dop;
    EXPECT_EQ(run.io.seq_ios, base.io.seq_ios) << "dop=" << dop;
    EXPECT_EQ(run.io.pages_read, base.io.pages_read) << "dop=" << dop;
    EXPECT_EQ(run.io.io_time, base.io.io_time) << "dop=" << dop;
    EXPECT_EQ(run.cpu, base.cpu) << "dop=" << dop;
  }
}

}  // namespace
}  // namespace smoothscan
