// Engine: the bundle of substrate components (storage, simulated disk, buffer
// pool, CPU meter, batch pool, task scheduler) that every operator executes
// against. Owns its members and provides the measurement hooks benchmarks use
// (cold runs, time snapshots).

#ifndef SMOOTHSCAN_STORAGE_ENGINE_H_
#define SMOOTHSCAN_STORAGE_ENGINE_H_

#include <algorithm>
#include <memory>
#include <thread>

#include "exec/task_scheduler.h"
#include "mem/batch_pool.h"
#include "storage/buffer_pool.h"
#include "storage/cpu_meter.h"
#include "storage/sim_disk.h"
#include "storage/storage_manager.h"

namespace smoothscan {

/// Engine construction knobs.
struct EngineOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Buffer-pool capacity in pages (default 8 K pages = 64 MB at 8 KB pages).
  size_t buffer_pool_pages = 8192;
  DeviceProfile device = DeviceProfile::Hdd();
  CpuCosts cpu_costs;
};

/// One simulated database instance. Non-copyable; operators hold a pointer.
class Engine {
 public:
  explicit Engine(EngineOptions options = EngineOptions())
      : options_(options),
        storage_(options.page_size),
        disk_(options.device, options.page_size),
        pool_(&storage_, &disk_, options.buffer_pool_pages),
        cpu_(options.cpu_costs),
        scheduler_(std::max(1u, std::thread::hardware_concurrency())) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  StorageManager& storage() { return storage_; }
  SimDisk& disk() { return disk_; }
  BufferPool& pool() { return pool_; }
  CpuMeter& cpu() { return cpu_; }
  /// The ungoverned batch pool every default context hands out; it outlives
  /// every operator, so a fresh scan draws warm batches.
  BatchPool& batch_pool() { return batch_pool_; }
  /// The one worker pool every parallel scan runs its morsels on, one
  /// worker per hardware thread. Its threads start at the first parallel
  /// Open and live as long as the engine, so a fresh scan starts none.
  TaskScheduler& scheduler() { return scheduler_; }
  const EngineOptions& options() const { return options_; }

  /// Total simulated elapsed time (I/O + CPU).
  double TotalTime() const { return disk_.stats().io_time + cpu_.time(); }

  /// Empties caches and forgets disk positions so the next query runs cold,
  /// as in the paper's experimental setup. Counters are preserved. Pages
  /// pinned by live PageGuards survive the flush (skip + report semantics);
  /// a cold restart between queries expects no live guards.
  void ColdRestart() {
    pool_.FlushAll();
    disk_.ResetPositions();
  }

 private:
  EngineOptions options_;
  StorageManager storage_;
  SimDisk disk_;
  BufferPool pool_;
  CpuMeter cpu_;
  BatchPool batch_pool_;
  /// Declared after the batch pool: its workers join before the pool their
  /// morsels emit into goes away.
  TaskScheduler scheduler_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_ENGINE_H_
