// Shared measurement helpers for the figure/table benchmark binaries. Each
// bench prints the same series the paper reports; "execution time" is the
// simulated time of the engine (I/O + CPU), and I/O counters come from the
// simulated disk. Runs are cold: the buffer pool is flushed before each
// measured scan, mirroring the paper's cache clearing.

#ifndef SMOOTHSCAN_BENCH_BENCH_UTIL_H_
#define SMOOTHSCAN_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "access/access_path.h"
#include "storage/engine.h"

namespace smoothscan::bench {

/// Metrics of one measured run (diffs of engine counters).
struct RunMetrics {
  double total_time = 0.0;
  double io_time = 0.0;
  double cpu_time = 0.0;
  uint64_t io_requests = 0;
  uint64_t random_ios = 0;
  uint64_t seq_ios = 0;
  uint64_t pages_read = 0;
  uint64_t bytes_read = 0;
  uint64_t tuples = 0;  ///< Tuples produced by the measured operator/query.
  double wall_ms = 0.0;  ///< Real elapsed time of the measured body.
  uint32_t threads = 1;  ///< Degree of parallelism of the measured run.
};

/// Runs `body` cold (buffer pool flushed, disk positions reset) and returns
/// the metric deltas. `body` returns the produced tuple count.
template <typename Body>
RunMetrics MeasureCold(Engine* engine, Body&& body) {
  engine->ColdRestart();
  const IoStats io_before = engine->disk().stats();
  const double cpu_before = engine->cpu().time();
  RunMetrics m;
  const auto wall_start = std::chrono::steady_clock::now();
  m.tuples = body();
  const auto wall_end = std::chrono::steady_clock::now();
  const IoStats io = engine->disk().stats() - io_before;
  m.io_time = io.io_time;
  m.cpu_time = engine->cpu().time() - cpu_before;
  m.total_time = m.io_time + m.cpu_time;
  m.io_requests = io.io_requests;
  m.random_ios = io.random_ios;
  m.seq_ios = io.seq_ios;
  m.pages_read = io.pages_read;
  m.bytes_read = io.bytes_read;
  m.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_start)
                  .count();
  return m;
}

/// Opens, drains and closes `path` cold with batch pulls of
/// `kDefaultBatchSize`; returns the metrics.
RunMetrics MeasureScan(Engine* engine, AccessPath* path);

/// Same, with a caller-chosen batch capacity (batch-size ablations).
RunMetrics MeasureScanBatched(Engine* engine, AccessPath* path,
                              size_t batch_size);

/// Machine-readable results: after OpenJson("fig05"), every PrintSweepRow /
/// RecordRow lands in an in-memory table that CloseJson() (or process exit)
/// writes to BENCH_fig05.json — one row per measured series point with
/// simulated cost, wall milliseconds and thread count, so the perf
/// trajectory is diffable across PRs. The file lands in $SMOOTHSCAN_BENCH_DIR
/// when that is set (CI collects the repo-root trajectory this way), else in
/// the current working directory.
void OpenJson(const std::string& bench_name);
void RecordRow(const std::string& series, double selectivity_percent,
               const RunMetrics& m);

/// Extra numeric fields appended to one JSON row (throughput, percentiles,
/// client counts — whatever the bench sweeps beyond the standard metrics).
struct ExtraField {
  std::string key;
  double value;
};
void RecordRowExtra(const std::string& series, double selectivity_percent,
                    const RunMetrics& m, std::vector<ExtraField> extras);
void CloseJson();

/// Prints a standard header / row for selectivity-sweep benches; the row's
/// extra fields (if any) print after it as key=value and are recorded with it.
void PrintSweepHeader(const std::string& bench, const std::string& extra);
void PrintSweepRow(double selectivity_percent, const std::string& series,
                   const RunMetrics& m, std::vector<ExtraField> extras = {});

}  // namespace smoothscan::bench

#endif  // SMOOTHSCAN_BENCH_BENCH_UTIL_H_
