// CPU cost accounting. The paper's central trade — Smooth Scan "invests CPU
// cycles for reading additional tuples from each page" to save I/O — requires
// charging CPU work in the same simulated-time units as I/O. One sequential
// page read costs 1.0 time unit (see DeviceProfile); the constants below make
// inspecting a full page of ~100 tuples cost a few percent of reading it,
// consistent with the paper's "one I/O ≈ a million CPU instructions" rule of
// thumb [19] while keeping CPU visible in the Fig. 4 breakdowns.

#ifndef SMOOTHSCAN_STORAGE_CPU_METER_H_
#define SMOOTHSCAN_STORAGE_CPU_METER_H_

#include <cmath>
#include <cstdint>

namespace smoothscan {

/// Per-operation CPU costs in simulated time units (seq page read = 1.0).
namespace cpu_cost {
/// Deserializing one tuple and evaluating the predicate on it.
inline constexpr double kInspectTuple = 5e-4;
/// Copying a qualifying tuple to the output (or into a result cache).
inline constexpr double kProduceTuple = 2e-4;
/// One bitmap or hash cache operation (probe/insert/delete).
inline constexpr double kCacheOp = 5e-5;
/// Advancing one index-leaf entry.
inline constexpr double kIndexEntry = 5e-5;
/// Per-element-comparison cost of sorting (total = n * log2(n) * this).
inline constexpr double kSortPerCmp = 2e-4;
/// One hash-table build or probe operation in joins/aggregates.
inline constexpr double kHashOp = 2e-4;
/// Applying one mutation to a slotted page (serialize + slot bookkeeping;
/// index-maintenance queueing is amortized in). Writes cost more than
/// inspection but stay far below one page I/O, like the other constants.
inline constexpr double kWriteTuple = 1e-3;
}  // namespace cpu_cost

/// Accumulates simulated CPU time.
class CpuMeter {
 public:
  void ChargeInspect(uint64_t tuples = 1) {
    time_ += cpu_cost::kInspectTuple * static_cast<double>(tuples);
  }
  void ChargeProduce(uint64_t tuples = 1) {
    time_ += cpu_cost::kProduceTuple * static_cast<double>(tuples);
  }
  void ChargeCacheOp(uint64_t ops = 1) {
    time_ += cpu_cost::kCacheOp * static_cast<double>(ops);
  }
  void ChargeIndexEntry(uint64_t entries = 1) {
    time_ += cpu_cost::kIndexEntry * static_cast<double>(entries);
  }
  /// Charges an n*log2(n) comparison sort of `n` items.
  void ChargeSort(uint64_t n) {
    if (n < 2) return;
    time_ += cpu_cost::kSortPerCmp * static_cast<double>(n) *
             std::log2(static_cast<double>(n));
  }
  void ChargeHashOp(uint64_t ops = 1) {
    time_ += cpu_cost::kHashOp * static_cast<double>(ops);
  }
  void ChargeWriteTuple(uint64_t tuples = 1) {
    time_ += cpu_cost::kWriteTuple * static_cast<double>(tuples);
  }
  /// Adds another meter's accumulated time (morsel merge; callers merge in
  /// morsel order so double accumulation stays deterministic).
  void Add(double time) { time_ += time; }

  double time() const { return time_; }
  void Reset() { time_ = 0.0; }

 private:
  double time_ = 0.0;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_CPU_METER_H_
