// Shared plumbing of the benchmark runner: the run's raw report (sample
// series, scalar values and the operation tally that run.py turns into
// metrics), the traced mode's span recorder, throughput windows, process
// probes (CPU time, peak RSS, thread count) and seeded stratified sampling.

#ifndef PERFBENCH_RUNNER_HARNESS_H_
#define PERFBENCH_RUNNER_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "obs/trace.h"
#include "plan/access_path_chooser.h"
#include "storage/engine.h"
#include "storage/heap_file.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced mode writes its Chrome trace-event JSON.
  std::string trace_path;
};

/// What one run measured, printed as one JSON object for run.py: named
/// sample series (run.py takes their percentiles), named scalar values, and
/// the tally of attempted and failed operations. A failed operation is
/// counted, never fatal. Thread-safe.
class Report {
 public:
  void Sample(std::string_view series, double value);
  void Samples(std::string_view series, const std::vector<double>& values);
  void Set(std::string_view name, double value);
  /// One operation was attempted; `error` empty means it was correct.
  void Record(const std::string& error);

  std::string ToJson(const Args& args) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
  std::map<std::string, double, std::less<>> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> first_errors_;
};

/// The traced mode's recorder: every span goes to the TraceCollector (the
/// engine's Chrome trace-event exporter) and its duration, in microseconds,
/// into the report series of the same name.
class Tracer {
 public:
  Tracer(smoothscan::obs::TraceCollector* collector, Report* report)
      : collector_(collector), report_(report) {}
  smoothscan::obs::TraceCollector* collector() const { return collector_; }
  Report* report() const { return report_; }

 private:
  smoothscan::obs::TraceCollector* collector_;
  Report* report_;
};

/// RAII span around one call into a layer. A null tracer (untraced mode)
/// makes it free apart from one clock read. `name` must be a string literal.
class Span {
 public:
  Span(Tracer* tracer, uint64_t request, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* const tracer_;
  const uint64_t request_;
  const char* const name_;
  const Clock::time_point start_;
};

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// Throughput windows. The loop closes a window after each balanced block
/// of work (or a sampler closes one every second); each window's query
/// rate, row rate and CPU per query go to the "window.*" series and run.py
/// reports their medians, so a burst of noise from other tenants of the
/// host moves one window, not the run's figure.
class WindowMeter {
 public:
  explicit WindowMeter(Report* report);
  /// Closes the window ending now; totals are cumulative since the meter
  /// was created.
  void Close(uint64_t queries, uint64_t rows);

 private:
  Report* report_;
  Clock::time_point t_;
  double cpu_;
  uint64_t queries_ = 0;
  uint64_t rows_ = 0;
};

/// Peak resident set size of the process, in MiB (VmHWM).
double PeakRssMb();

/// Polls the process's thread count every millisecond while alive; peak()
/// is the high-water mark seen.
class ThreadMonitor {
 public:
  ThreadMonitor();
  ~ThreadMonitor();
  ThreadMonitor(const ThreadMonitor&) = delete;
  ThreadMonitor& operator=(const ThreadMonitor&) = delete;
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread poller_;
};

/// Stratified draws: a shuffled deck of one card per stratum, reshuffled
/// when empty, so every `size` consecutive draws cover each stratum once.
/// The mix of a run then hardly depends on the seed, while every draw stays
/// a function of it.
class Deck {
 public:
  Deck(size_t size, smoothscan::Rng* rng);
  size_t Next();

 private:
  smoothscan::Rng* rng_;
  std::vector<size_t> cards_;
  size_t next_;
};

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, smoothscan::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// The point at fraction `u` in [0, 1) of stratum `stratum` of `strata`
/// equal slices of [lo, hi] in log space (u uniform: a log-uniform draw).
double LogUniformInStratum(double lo, double hi, size_t stratum, size_t strata,
                           double u);

/// q-error of an estimate against the delivered cardinality (both clamped
/// to at least 1): max(est/act, act/est).
double QError(double estimate, double actual);

/// Storage-layer totals of a traced phase, reported as the storage.*
/// per-layer metrics.
struct StorageTally {
  uint64_t queries = 0;
  uint64_t pages_read = 0;
  uint64_t random_ios = 0;
  uint64_t seq_ios = 0;
  double io_time = 0.0;
  double sim_time = 0.0;

  /// One query's charges.
  void Add(uint64_t pages, uint64_t random, uint64_t seq, double io,
           double sim);
  void Merge(const StorageTally& other);
  /// `hits` and `misses` are the buffer-pool counters over the same phase.
  void ReportTo(Report* report, double hits, double misses) const;
};

/// Lower-case metric-name form of a path kind ("full", "index", ...).
const char* KindName(smoothscan::PathKind kind);

/// The Section-V cost model parameterized for `heap` on `engine`'s device
/// (the same derivation src/workload/ uses for its closed loops).
smoothscan::CostModel CostModelFor(const smoothscan::Engine& engine,
                                   const smoothscan::HeapFile& heap);

/// Builds the fixture `setups` times, timing each build into the report's
/// "setup_s" series, and returns the last one (earlier ones are destroyed
/// before the next is built, so peak memory holds one fixture).
template <typename Fixture>
std::unique_ptr<Fixture> TimedSetup(
    int setups, Report* report,
    const std::function<std::unique_ptr<Fixture>()>& build) {
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    const Clock::time_point t0 = Clock::now();
    fixture = build();
    report->Sample("setup_s", SecondsSince(t0));
  }
  return fixture;
}

int RunMicroSerial(const Args& args, Report* report);
int RunTpchParallel(const Args& args, Report* report);
int RunWireMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HARNESS_H_
