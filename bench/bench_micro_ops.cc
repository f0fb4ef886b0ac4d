// google-benchmark micro-benchmarks for the hot substrate operations:
// tuple serialization, page insertion, B+-tree seeks and iterator advance,
// buffer-pool fetches, the RNG and the wire's BATCH row codec. These guard
// the constant factors the simulation's wall-clock time depends on (the
// simulated costs themselves are deterministic).

#include <benchmark/benchmark.h>

#include "access/full_scan.h"
#include "exec/operators.h"
#include "common/rng.h"
#include "index/bplus_tree.h"
#include "net/frame.h"
#include "storage/engine.h"
#include "storage/heap_file.h"
#include "workload/micro_bench.h"

namespace smoothscan {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_SchemaSerialize(benchmark::State& state) {
  const Schema schema = MakeIntSchema(10);
  Tuple t(10, Value::Int64(42));
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    schema.Serialize(t, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SchemaSerialize);

void BM_SchemaDeserializeColumn(benchmark::State& state) {
  const Schema schema = MakeIntSchema(10);
  Tuple t(10, Value::Int64(42));
  std::vector<uint8_t> buf;
  schema.Serialize(t, &buf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schema.DeserializeColumn(
        buf.data(), static_cast<uint32_t>(buf.size()), 1));
  }
}
BENCHMARK(BM_SchemaDeserializeColumn);

void BM_PageInsert(benchmark::State& state) {
  const uint8_t data[80] = {};
  for (auto _ : state) {
    state.PauseTiming();
    Page page(8192);
    state.ResumeTiming();
    while (page.Fits(sizeof(data))) {
      benchmark::DoNotOptimize(page.Insert(data, sizeof(data)));
    }
  }
}
BENCHMARK(BM_PageInsert);

class TreeFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (db != nullptr) return;
    engine = std::make_unique<Engine>();
    MicroBenchSpec spec;
    spec.num_tuples = 100000;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);
  }
  static std::unique_ptr<Engine> engine;
  static std::unique_ptr<MicroBenchDb> db;
};
std::unique_ptr<Engine> TreeFixture::engine;
std::unique_ptr<MicroBenchDb> TreeFixture::db;

BENCHMARK_F(TreeFixture, BM_BTreeSeek)(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->index().Seek(rng.UniformInt(0, 100000)));
  }
}

BENCHMARK_F(TreeFixture, BM_BTreeIterate1K)(benchmark::State& state) {
  for (auto _ : state) {
    auto it = db->index().Seek(0);
    for (int i = 0; i < 1000 && it.Valid(); ++i) it.Next();
    benchmark::DoNotOptimize(it.Valid());
  }
}

BENCHMARK_F(TreeFixture, BM_BufferPoolHit)(benchmark::State& state) {
  engine->pool().Fetch(db->heap().file_id(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->pool().Fetch(db->heap().file_id(), 0));
  }
}

BENCHMARK_F(TreeFixture, BM_HeapRead)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->heap().Read(Tid{0, 0}));
  }
}

// Full-scan drain throughput as a function of batch capacity: the headline
// number of the vectorization refactor. The scan is pulled through the
// Operator interface, as every query's leaf is: batch 1 degenerates to the
// old tuple-at-a-time pipeline — one dispatch and batch/meter bookkeeping
// *per tuple* — while batch 1024 amortizes all of it across the batch.
// Compare items_per_second of /1 vs /1024.
void BM_FullScanDrain(benchmark::State& state) {
  static std::unique_ptr<Engine> engine;
  static std::unique_ptr<MicroBenchDb> scan_db;
  if (scan_db == nullptr) {
    engine = std::make_unique<Engine>();
    MicroBenchSpec spec;
    spec.num_tuples = 100000;
    scan_db = std::make_unique<MicroBenchDb>(engine.get(), spec);
  }
  const ScanPredicate pred = scan_db->PredicateForSelectivity(1.0);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  uint64_t tuples = 0;
  for (auto _ : state) {
    FullScan scan(&scan_db->heap(), pred);
    SMOOTHSCAN_CHECK(scan.Open().ok());
    const uint64_t n = Drain(&scan, nullptr, batch_size);
    scan.Close();
    benchmark::DoNotOptimize(n);
    tuples += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
}
BENCHMARK(BM_FullScanDrain)->Arg(1)->Arg(64)->Arg(1024);

/// 1024 rows x 10 INT64 columns of micro-benchmark-like values.
TupleBatch WireBatch() {
  Rng rng(7);
  TupleBatch batch;
  for (int i = 0; i < 1024; ++i) {
    Tuple* slot = batch.AppendSlot();
    slot->resize(10);
    for (int c = 0; c < 10; ++c) {
      (*slot)[c] = Value::Int64(rng.UniformInt(0, 4000000));
    }
  }
  return batch;
}

// Server side: one BATCH frame built into a warm per-stream buffer.
void BM_WireBatchEncode(benchmark::State& state) {
  const TupleBatch batch = WireBatch();
  std::string wire;
  for (auto _ : state) {
    wire.clear();
    net::AppendBatchFrame(1, batch, &wire);
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_WireBatchEncode);

// Client side: the same frame's payload parsed into fresh result rows.
void BM_WireBatchParse(benchmark::State& state) {
  const TupleBatch batch = WireBatch();
  std::string wire;
  net::AppendBatchFrame(1, batch, &wire);
  const std::string_view payload(wire.data() + 5, wire.size() - 5);
  for (auto _ : state) {
    std::vector<std::vector<int64_t>> rows;
    uint64_t tag = 0;
    if (!net::ParseBatchPayload(payload, &tag, &rows).ok()) {
      state.SkipWithError("parse failed");
    }
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_WireBatchParse);

}  // namespace
}  // namespace smoothscan

BENCHMARK_MAIN();
