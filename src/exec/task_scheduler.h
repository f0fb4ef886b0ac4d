// TaskScheduler: the fixed worker pool behind morsel-driven parallel
// execution. Tasks wait in one FIFO queue and every idle worker takes the
// oldest, so a scan's tasks start lowest slot first — the order ParallelScan
// submits them in — and several scans' tasks still keep every core busy.
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

  /// Appends `tasks` to the queue in order and wakes one worker per task (at
  /// most every worker). Returns immediately; a caller that needs
  /// completion has its tasks report it.
  void Submit(std::vector<Task> tasks) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  const uint32_t num_workers_;
  // Contention is per task (morsel steps are thousands of tuples each), far
  // off any hot path.
  mutable latch::Latch mu_{latch::LatchRank::kScheduler,
                           "TaskScheduler::mu_"};
  std::condition_variable_any cv_;
  std::deque<Task> tasks_ GUARDED_BY(mu_);
  /// Empty until the first Submit starts every worker.
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_EXEC_TASK_SCHEDULER_H_
