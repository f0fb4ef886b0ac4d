// MemoryBroker: one accounting authority over every memory consumer of the
// engine — buffer-pool frames, ResultCache resident tuples, shared-scan
// pinned chunk windows, and per-query execution memory (pooled batches) — the
// multi-class memory-allocation problem of Brown et al. (VLDB 1994) applied
// to this engine's consumers.
//
// The broker is *advisory*, not a gatekeeper: consumers charge and uncharge
// bytes as their footprint changes, and poll UnderPressure() / their own
// QueryMemoryScope quota on their own thread. Under pressure each consumer
// sheds in its own way — the ResultCache spills its furthest partitions to
// the simulated overflow file, shared-scan groups clamp their drift window
// to one chunk, batch pools drop recycled row storage instead of free-listing
// it. Nothing ever fails: shedding converts memory into (simulated or real)
// time, never into an error.
//
// Accounting invariant: broker charges are bookkeeping only. No charge or
// shed decision touches a per-query SimDisk or CpuMeter, and every shed path
// either charges the engine's *communal* stream (ResultCache spill, like the
// pre-broker budget spills) or changes only pinned-window slack (shared-scan
// drift), so per-query simulated cost is bit-identical with the broker on or
// off, at any quota.

#ifndef SMOOTHSCAN_MEM_MEMORY_BROKER_H_
#define SMOOTHSCAN_MEM_MEMORY_BROKER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/latch_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace smoothscan {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Consumer classes the broker accounts separately (reporting/shedding
/// policy is per class; the budget is global).
enum class MemoryClass {
  kBufferPool = 0,
  kResultCache,
  kSharedScanWindow,
  kExecBatches,
  kOther,
};
inline constexpr size_t kNumMemoryClasses = 5;

const char* MemoryClassName(MemoryClass cls);

struct MemoryBrokerOptions {
  /// Global byte budget across all consumers; charges past it raise the
  /// pressure flag (never fail). Default: unbounded.
  uint64_t global_budget_bytes = UINT64_MAX;
  /// Hysteresis low-water mark: once raised, the pressure flag stays up
  /// until the total falls to or below this, damping the spill/restore
  /// ping-pong of consumers hovering at the budget line. 0 (default)
  /// derives `budget - budget / 8`; must not exceed the budget.
  uint64_t pressure_low_water_bytes = 0;
};

/// Snapshot of one registered consumer.
struct MemoryConsumerStats {
  std::string name;
  MemoryClass cls = MemoryClass::kOther;
  uint64_t bytes = 0;
  uint64_t peak_bytes = 0;
};

class MemoryBroker {
 public:
  /// A registered consumer's charging handle. Move-only; unregisters (and
  /// uncharges any remaining bytes) on destruction.
  class Consumer {
   public:
    Consumer() = default;
    Consumer(const Consumer&) = delete;
    Consumer& operator=(const Consumer&) = delete;
    Consumer(Consumer&& other) noexcept { Swap(&other); }
    Consumer& operator=(Consumer&& other) noexcept {
      if (this != &other) {
        Unregister();
        Swap(&other);
      }
      return *this;
    }
    ~Consumer() { Unregister(); }

    bool valid() const { return broker_ != nullptr; }
    void Charge(uint64_t bytes) {
      if (broker_ != nullptr) broker_->Charge(id_, bytes);
    }
    void Uncharge(uint64_t bytes) {
      if (broker_ != nullptr) broker_->Uncharge(id_, bytes);
    }
    uint64_t bytes() const {
      return broker_ != nullptr ? broker_->ConsumerBytes(id_) : 0;
    }
    /// Uncharges whatever is still charged and releases the registration.
    void Unregister() {
      if (broker_ != nullptr) broker_->Unregister(id_);
      broker_ = nullptr;
    }

   private:
    friend class MemoryBroker;
    void Swap(Consumer* other) {
      std::swap(broker_, other->broker_);
      std::swap(id_, other->id_);
    }
    MemoryBroker* broker_ = nullptr;
    size_t id_ = 0;
  };

  explicit MemoryBroker(MemoryBrokerOptions options = MemoryBrokerOptions())
      : options_(options),
        low_water_(options.pressure_low_water_bytes != 0
                       ? options.pressure_low_water_bytes
                       : options.global_budget_bytes -
                             options.global_budget_bytes / 8) {
    SMOOTHSCAN_CHECK(low_water_ <= options_.global_budget_bytes);
  }

  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  Consumer Register(MemoryClass cls, std::string name) EXCLUDES(mu_);

  uint64_t total_bytes() const {
    return total_.load(std::memory_order_relaxed);
  }
  uint64_t budget() const { return options_.global_budget_bytes; }
  uint64_t pressure_low_water() const { return low_water_; }

  /// True from the charge that pushes the total past the global budget until
  /// the uncharge that brings it back to the low-water mark (hysteresis: a
  /// consumer that sheds just below the budget and immediately re-charges no
  /// longer flaps the flag). Lock-free: consumers poll this on hot paths.
  bool UnderPressure() const {
    return pressured_.load(std::memory_order_relaxed);
  }

  /// Bumped every time the pressure flag rises — consumers (and tests) can
  /// detect "pressure happened" even if it was relieved.
  uint64_t pressure_epoch() const {
    return pressure_epoch_.load(std::memory_order_relaxed);
  }

  uint64_t peak_total_bytes() const EXCLUDES(mu_);
  uint64_t class_bytes(MemoryClass cls) const EXCLUDES(mu_);
  std::vector<MemoryConsumerStats> ConsumerSnapshots() const EXCLUDES(mu_);

 private:
  struct Entry {
    MemoryClass cls = MemoryClass::kOther;
    std::string name;
    uint64_t bytes = 0;
    uint64_t peak_bytes = 0;
    bool live = false;
  };

  void Charge(size_t id, uint64_t bytes) EXCLUDES(mu_);
  void Uncharge(size_t id, uint64_t bytes) EXCLUDES(mu_);
  void Unregister(size_t id) EXCLUDES(mu_);
  uint64_t ConsumerBytes(size_t id) const EXCLUDES(mu_);

  /// Re-derives the pressure flag after `total_` moved to `after`. The flag
  /// is written only under `mu_` (so rise/fall transitions serialize) but
  /// read lock-free by UnderPressure().
  void UpdatePressureLocked(uint64_t before, uint64_t after) REQUIRES(mu_);

  const MemoryBrokerOptions options_;
  const uint64_t low_water_;
  /// The broker latch is a leaf: BatchPool charges its query scope (which
  /// forwards here) while holding the pool latch, and shared-scan groups
  /// charge window bytes under the group latch.
  mutable latch::Latch mu_{latch::LatchRank::kBroker, "MemoryBroker::mu_"};
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  std::vector<size_t> free_ids_ GUARDED_BY(mu_);
  uint64_t class_bytes_[kNumMemoryClasses] GUARDED_BY(mu_) = {};
  uint64_t peak_total_ GUARDED_BY(mu_) = 0;
  /// Mirror of the summed entry bytes, readable without the latch.
  std::atomic<uint64_t> total_{0};
  /// Hysteresis pressure flag (see UnderPressure); written under `mu_` only.
  std::atomic<bool> pressured_{false};
  std::atomic<uint64_t> pressure_epoch_{0};
};

/// Per-query execution-memory account: charged through ExecContext by the
/// query's batch pools, counted against a per-query quota and (when a broker
/// is attached) against the global kExecBatches class. Breaching the quota —
/// or global broker pressure — makes the pools shed recycled storage; the
/// query itself never fails and its simulated cost never changes.
class QueryMemoryScope {
 public:
  /// `broker` may be null: the scope then enforces only its own quota.
  explicit QueryMemoryScope(MemoryBroker* broker = nullptr,
                            uint64_t quota_bytes = UINT64_MAX);
  QueryMemoryScope(const QueryMemoryScope&) = delete;
  QueryMemoryScope& operator=(const QueryMemoryScope&) = delete;

  void Charge(uint64_t bytes);
  void Uncharge(uint64_t bytes);
  /// True when the query should shed memory instead of retaining more.
  bool OverQuota() const;

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t quota_bytes() const { return quota_; }
  /// Charges that landed (or stayed) above the quota.
  uint64_t quota_breaches() const {
    return breaches_.load(std::memory_order_relaxed);
  }

 private:
  MemoryBroker* broker_;
  const uint64_t quota_;
  MemoryBroker::Consumer consumer_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> breaches_{0};
};

/// Writes the broker's totals, peak, pressure state and per-class bytes into
/// `registry`'s broker.* gauges: one pull, right before a report snapshot.
void SetBrokerGauges(const MemoryBroker& broker,
                     obs::MetricsRegistry* registry);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_MEM_MEMORY_BROKER_H_
