// TaskScheduler: the fixed worker pool behind morsel-driven parallel
// execution. Each worker owns a deque of tasks; Submit() deals tasks
// round-robin across the deques, workers pop their own deque from the front
// and — when it runs dry — steal from the back of a sibling's deque, so an
// uneven submission (or several scans' tasks) still keeps every core busy.
//
// Ownership: the Engine owns the one pool every ExecContext hands out (see
// storage/engine.h); its threads start at the first Submit, so an engine
// that never runs a parallel scan starts none. Tasks must not block: a
// parallel scan's morsel parks and returns its worker instead of waiting for
// its consumer (see access/parallel_scan.h), so a few workers serve any
// number of concurrent scans.
//
// Determinism contract: the scheduler decides *where and when* tasks run,
// never *what they compute*. Parallel operators keep their results and their
// simulated-time accounting a pure function of the task (morsel) list — see
// parallel_scan.h — so any interleaving the scheduler produces yields the
// same answer.

#ifndef SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_
#define SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/latch_rank.h"
#include "common/thread_annotations.h"

namespace smoothscan {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// A pool of `num_workers` threads (at least 1), started at the first
  /// Submit.
  explicit TaskScheduler(uint32_t num_workers);
  /// Runs every queued task, then joins the workers.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }

  /// Enqueues `tasks`, dealt round-robin across worker deques, and wakes one
  /// worker per task (at most every worker). Returns immediately; a caller
  /// that needs completion has its tasks report it.
  void Submit(std::vector<Task> tasks) EXCLUDES(mu_);

 private:
  struct Worker {
    std::deque<Task> tasks;
    std::thread thread;
  };

  void WorkerLoop(uint32_t id);
  /// Pops own work from the front, or steals from the back of a sibling.
  bool TryTake(uint32_t id, Task* out) REQUIRES(mu_);

  // One latch guards all deques: contention is per-task (morsel steps are
  // thousands of tuples each), far off any hot path. The stealing *policy*
  // stays per-deque; the latch is an implementation shortcut.
  mutable latch::Latch mu_{latch::LatchRank::kScheduler,
                           "TaskScheduler::mu_"};
  std::condition_variable_any cv_;
  /// The vector itself is fixed after construction; the `tasks` deques
  /// inside are guarded by `mu_` — accessed only via TryTake/Submit — and
  /// each `thread` is set once, under `mu_`, by the first Submit.
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_deal_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_
