#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

constexpr size_t kMaxErrorsKept = 8;

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf);
}

/// Value of `key` (e.g. "VmHWM:") in /proc/self/status, or -1.
long ProcStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return -1;
}

int ThreadCount() { return static_cast<int>(ProcStatusField("Threads:")); }

}  // namespace

void Report::Sample(std::string_view series, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(series);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(series), std::vector<double>()).first;
  }
  it->second.push_back(value);
}

void Report::Samples(std::string_view series,
                     const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(series);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(series), std::vector<double>()).first;
  }
  it->second.insert(it->second.end(), values.begin(), values.end());
}

void Report::Set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[std::string(name)] = value;
}

void Report::Record(const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (first_errors_.size() < kMaxErrorsKept) first_errors_.push_back(error);
}

std::string Report::ToJson(const Args& args) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"workload\": ";
  AppendJsonString(&out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"errors\": [";
  for (size_t i = 0; i < first_errors_.size(); ++i) {
    if (i != 0) out += ", ";
    AppendJsonString(&out, first_errors_[i]);
  }
  out += "], \"values\": {";
  bool first = true;
  for (const auto& [name, v] : values_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": ";
    AppendNumber(&out, v);
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [name, vs] : samples_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, name);
    out += ": [";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) out += ", ";
      AppendNumber(&out, vs[i]);
    }
    out += "]";
  }
  out += "}}";
  return out;
}

Span::Span(Tracer* tracer, uint64_t request, const char* name)
    : tracer_(tracer), request_(request), name_(name), start_(Clock::now()) {
  // Query id 0: a benchmark span is not one of the engine's queries; the
  // request it belongs to rides in the "request" arg.
  if (tracer_ != nullptr) {
    tracer_->collector()->Begin(0, name_, "request",
                                static_cast<int64_t>(request_));
  }
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->collector()->End(0, name_);
  tracer_->report()->Sample(
      name_, std::chrono::duration<double, std::micro>(Clock::now() - start_)
                 .count());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

WindowMeter::WindowMeter(Report* report)
    : report_(report), t_(Clock::now()), cpu_(ProcessCpuSeconds()) {}

void WindowMeter::Close(uint64_t queries, uint64_t rows) {
  const Clock::time_point now = Clock::now();
  const double cpu = ProcessCpuSeconds();
  const double seconds = std::chrono::duration<double>(now - t_).count();
  const uint64_t dq = queries - queries_;
  if (dq > 0 && seconds > 0.0) {
    report_->Sample("window.qps", static_cast<double>(dq) / seconds);
    report_->Sample("window.rows_per_s",
                    static_cast<double>(rows - rows_) / seconds);
    report_->Sample("window.cpu_ms_per_query",
                    (cpu - cpu_) * 1e3 / static_cast<double>(dq));
  }
  t_ = now;
  cpu_ = cpu;
  queries_ = queries;
  rows_ = rows;
}

double PeakRssMb() {
  return static_cast<double>(ProcStatusField("VmHWM:")) / 1024.0;
}

ThreadMonitor::ThreadMonitor() : peak_(ThreadCount()) {
  poller_ = std::thread([this] {
    while (!stop_.load()) {
      const int n = ThreadCount();
      int seen = peak_.load();
      while (n > seen && !peak_.compare_exchange_weak(seen, n)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ThreadMonitor::~ThreadMonitor() {
  stop_.store(true);
  poller_.join();
}

Deck::Deck(size_t size, smoothscan::Rng* rng)
    : rng_(rng), cards_(size), next_(size) {
  for (size_t i = 0; i < size; ++i) cards_[i] = i;
}

size_t Deck::Next() {
  if (next_ == cards_.size()) {
    Shuffle(&cards_, rng_);
    next_ = 0;
  }
  return cards_[next_++];
}

double LogUniformInStratum(double lo, double hi, size_t stratum, size_t strata,
                           double u) {
  const double frac =
      (static_cast<double>(stratum) + u) / static_cast<double>(strata);
  return std::exp(std::log(lo) + frac * (std::log(hi) - std::log(lo)));
}

void StorageTally::Add(uint64_t pages, uint64_t random, uint64_t seq,
                       double io, double sim) {
  ++queries;
  pages_read += pages;
  random_ios += random;
  seq_ios += seq;
  io_time += io;
  sim_time += sim;
}

void StorageTally::Merge(const StorageTally& other) {
  queries += other.queries;
  pages_read += other.pages_read;
  random_ios += other.random_ios;
  seq_ios += other.seq_ios;
  io_time += other.io_time;
  sim_time += other.sim_time;
}

void StorageTally::ReportTo(Report* report, double hits, double misses) const {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Set("storage.pages_read_per_query",
              ratio(static_cast<double>(pages_read),
                    static_cast<double>(queries)));
  report->Set("storage.random_io_frac",
              ratio(static_cast<double>(random_ios),
                    static_cast<double>(random_ios + seq_ios)));
  report->Set("storage.io_frac_of_sim", ratio(io_time, sim_time));
  report->Set("storage.bufferpool_hit_rate", ratio(hits, hits + misses));
}

const char* KindName(smoothscan::PathKind kind) {
  using smoothscan::PathKind;
  switch (kind) {
    case PathKind::kFullScan:
      return "full";
    case PathKind::kIndexScan:
      return "index";
    case PathKind::kSortScan:
      return "sort";
    case PathKind::kSwitchScan:
      return "switch";
    case PathKind::kSmoothScan:
      return "smooth";
    case PathKind::kSharedScan:
      return "shared";
    case PathKind::kCompressedScan:
      return "compressed";
  }
  return "unknown";
}

smoothscan::CostModel CostModelFor(const smoothscan::Engine& engine,
                                   const smoothscan::HeapFile& heap) {
  smoothscan::CostModelParams params;
  params.num_tuples = heap.num_tuples();
  params.tuple_size =
      engine.options().page_size /
      std::max<uint64_t>(
          1, heap.num_tuples() / std::max<size_t>(1, heap.num_pages()));
  params.page_size = engine.options().page_size;
  params.rand_cost = engine.options().device.rand_cost;
  params.seq_cost = engine.options().device.seq_cost;
  return smoothscan::CostModel(params);
}

double QError(double estimate, double actual) {
  const double e = std::max(1.0, estimate);
  const double a = std::max(1.0, actual);
  return std::max(e / a, a / e);
}

}  // namespace perfbench
