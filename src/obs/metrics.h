// MetricsRegistry: the engine's unified observability plane — named counters,
// gauges and log-bucketed histograms that every subsystem's scattered stats
// map onto (buffer-pool hits/misses/write-backs, broker per-class bytes and
// pressure epochs, batch-pool cold acquires, admission-lane depths,
// shared-scan fan-out, ResultCache spills/restores).
//
// Hot-path contract: incrementing a metric is lock-free — counters are
// per-thread sharded cache-line-aligned atomic slots (one relaxed fetch_add,
// no false sharing between worker threads), gauges and histogram buckets are
// single relaxed atomics. The registry latch (LatchRank::kObsMetrics, a leaf
// below the broker so registration is legal from under any engine latch) is
// taken only at registration and snapshot time. Metric handles returned by
// counter()/gauge()/histogram() are stable for the registry's lifetime, so
// the engine's admission telemetry caches them once. Subsystems hold no
// handles: they keep their own stats structs and add them once per closed
// scan or completed query through obs::AddCount (obs/obs_context.h).
//
// Accounting invariant (the same one every subsystem carries): metrics are
// bookkeeping only. Nothing in src/obs/ touches a SimDisk or CpuMeter —
// enforced statically by scripts/lint_invariants.py (obs-accounting) — so
// simulated per-query cost is bit-identical with a registry attached or not,
// at any DOP and admission cap.

#ifndef SMOOTHSCAN_OBS_METRICS_H_
#define SMOOTHSCAN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"

namespace smoothscan {
namespace obs {

/// Per-thread shard index for sharded counters: a small dense id handed out
/// once per thread, so Counter::Add is one relaxed fetch_add on a slot that
/// (for the first kCounterShards threads) no other thread writes.
size_t ThisThreadShardIndex();

/// Monotonic event counter with per-thread sharded slots (see file comment).
class Counter {
 public:
  static constexpr size_t kShards = 16;  ///< Power of two.

  void Add(uint64_t n = 1) {
    shards_[ThisThreadShardIndex() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards (snapshot-consistent enough for reporting; exact
  /// once the writers have quiesced).
  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Instantaneous signed level (queue depths, resident bytes). Set/Add are
/// single relaxed atomics — gauges are updated at event granularity (query
/// admission, sampler ticks), never per tuple.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram: value v lands in bucket bit_width(v), so bucket
/// upper bounds are 0, 1, 3, 7, ... (2^i - 1). Coarse by design — latency
/// distributions over decades, recorded with one relaxed fetch_add.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]); 0 on an
  /// empty histogram. Nearest-rank over bucket counts.
  uint64_t ValueAtQuantile(double q) const;

  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;  // 0 -> bucket 0; 1 -> 1; 2..3 -> 2; ... (== bit_width).
  }
  /// Largest value bucket `i` can hold (2^i - 1).
  static uint64_t BucketUpperBound(size_t i) {
    return i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1;
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One flattened snapshot entry. Histograms flatten into several entries
/// ("<name>.count", "<name>.sum", "<name>.p50", "<name>.p95", "<name>.p99"),
/// all tagged kHistogram.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

/// Point-in-time copy of every registered metric, safe to keep after the
/// registry is gone (WorkloadReport carries one).
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  bool Has(std::string_view name) const;
  /// Value of `name`, or `def` when absent.
  double Value(std::string_view name, double def = 0.0) const;
};

/// Named-metric registry (see file comment). Thread-safe; handles are stable
/// and valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration: returns the existing metric of that name or creates it.
  /// Takes the registry latch — call at setup/Open time, cache the pointer.
  Counter* counter(std::string_view name) EXCLUDES(mu_);
  Gauge* gauge(std::string_view name) EXCLUDES(mu_);
  Histogram* histogram(std::string_view name) EXCLUDES(mu_);

  /// Flattened copy of every metric (sorted by name). Histogram quantiles
  /// are bucket upper bounds — coarse, monotone, good enough for reports.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  size_t num_metrics() const EXCLUDES(mu_);

 private:
  /// Leaf latch (below kBroker): registration is legal while holding any
  /// other engine latch; nothing is ever acquired under it.
  mutable latch::Latch mu_{latch::LatchRank::kObsMetrics,
                           "MetricsRegistry::mu_"};
  // Deques give handed-out metric pointers stability across registrations.
  std::deque<Counter> counters_ GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ GUARDED_BY(mu_);
  struct Slot {
    MetricKind kind;
    size_t index;
  };
  std::unordered_map<std::string, Slot> by_name_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace smoothscan

#endif  // SMOOTHSCAN_OBS_METRICS_H_
