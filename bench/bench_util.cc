#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace smoothscan::bench {

namespace {

/// Process-global JSON recorder (bench binaries are single-threaded mains).
struct JsonRecorder {
  bool open = false;
  std::string name;
  struct Row {
    std::string series;
    double sel_pct;
    RunMetrics m;
    std::vector<ExtraField> extras;
  };
  std::vector<Row> rows;

  ~JsonRecorder() { Write(); }

  void Write() {
    if (!open) return;
    open = false;
    // Benches run from arbitrary build directories; SMOOTHSCAN_BENCH_DIR
    // routes the JSON to one collection point (the repo root in CI) so the
    // perf trajectory actually accumulates instead of landing in each cwd.
    std::string path = "BENCH_" + name + ".json";
    if (const char* dir = std::getenv("SMOOTHSCAN_BENCH_DIR");
        dir != nullptr && dir[0] != '\0') {
      path = std::string(dir) + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", name.c_str());
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"series\": \"%s\", \"sel_pct\": %.6f, \"sim_time\": %.6f, "
          "\"io_time\": %.6f, \"cpu_time\": %.6f, \"io_requests\": %llu, "
          "\"random_ios\": %llu, \"seq_ios\": %llu, \"pages_read\": %llu, "
          "\"tuples\": %llu, \"wall_ms\": %.3f, \"threads\": %u",
          r.series.c_str(), r.sel_pct, r.m.total_time, r.m.io_time,
          r.m.cpu_time, static_cast<unsigned long long>(r.m.io_requests),
          static_cast<unsigned long long>(r.m.random_ios),
          static_cast<unsigned long long>(r.m.seq_ios),
          static_cast<unsigned long long>(r.m.pages_read),
          static_cast<unsigned long long>(r.m.tuples), r.m.wall_ms,
          r.m.threads);
      for (const ExtraField& e : r.extras) {
        std::fprintf(f, ", \"%s\": %.6f", e.key.c_str(), e.value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    rows.clear();
  }
};

JsonRecorder& Recorder() {
  static JsonRecorder recorder;
  return recorder;
}

}  // namespace

void OpenJson(const std::string& bench_name) {
  Recorder().Write();  // Flush a previous bench, if any.
  Recorder().open = true;
  Recorder().name = bench_name;
}

void RecordRow(const std::string& series, double selectivity_percent,
               const RunMetrics& m) {
  if (!Recorder().open) return;
  Recorder().rows.push_back({series, selectivity_percent, m, {}});
}

void RecordRowExtra(const std::string& series, double selectivity_percent,
                    const RunMetrics& m, std::vector<ExtraField> extras) {
  if (!Recorder().open) return;
  Recorder().rows.push_back(
      {series, selectivity_percent, m, std::move(extras)});
}

void CloseJson() { Recorder().Write(); }

RunMetrics MeasureScan(Engine* engine, AccessPath* path) {
  return MeasureScanBatched(engine, path, kDefaultBatchSize);
}

RunMetrics MeasureScanBatched(Engine* engine, AccessPath* path,
                              size_t batch_size) {
  return MeasureCold(engine, [&]() -> uint64_t {
    SMOOTHSCAN_CHECK(path->Open().ok());
    TupleBatch batch(batch_size);
    uint64_t n = 0;
    while (path->NextBatch(&batch)) n += batch.size();
    path->Close();
    return n;
  });
}

void PrintSweepHeader(const std::string& bench, const std::string& extra) {
  std::printf("# %s%s%s\n", bench.c_str(), extra.empty() ? "" : " — ",
              extra.c_str());
  std::printf("%-12s %-28s %14s %12s %12s %10s %10s %12s %9s\n", "sel(%)",
              "series", "time", "io_time", "cpu_time", "io_reqs", "rand_io",
              "tuples", "wall_ms");
}

void PrintSweepRow(double selectivity_percent, const std::string& series,
                   const RunMetrics& m, std::vector<ExtraField> extras) {
  std::printf(
      "%-12.4f %-28s %14.1f %12.1f %12.1f %10llu %10llu %12llu %9.2f",
      selectivity_percent, series.c_str(), m.total_time, m.io_time, m.cpu_time,
      static_cast<unsigned long long>(m.io_requests),
      static_cast<unsigned long long>(m.random_ios),
      static_cast<unsigned long long>(m.tuples), m.wall_ms);
  for (const ExtraField& e : extras) {
    std::printf(" %s=%.10g", e.key.c_str(), e.value);
  }
  std::printf("\n");
  RecordRowExtra(series, selectivity_percent, m, std::move(extras));
}

}  // namespace smoothscan::bench
