#include "exec/task_scheduler.h"

#include <algorithm>

#include "common/status.h"

namespace smoothscan {

TaskScheduler::TaskScheduler(uint32_t num_workers)
    : num_workers_(num_workers) {
  SMOOTHSCAN_CHECK(num_workers > 0);
}

TaskScheduler::~TaskScheduler() {
  std::vector<std::thread> threads;
  {
    latch::LatchGuard lock(mu_);
    shutdown_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

void TaskScheduler::Submit(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  {
    latch::LatchGuard lock(mu_);
    if (threads_.empty()) {
      threads_.reserve(num_workers_);
      for (uint32_t i = 0; i < num_workers_; ++i) {
        threads_.emplace_back([this] { WorkerLoop(); });
      }
    }
    for (Task& task : tasks) tasks_.push_back(std::move(task));
  }
  // One wake per task: a woken worker keeps taking until the queue runs dry,
  // and a busy worker looks again before it sleeps, so no task waits on a
  // missed wake-up.
  const size_t wakes = std::min<size_t>(tasks.size(), num_workers_);
  for (size_t i = 0; i < wakes; ++i) cv_.notify_one();
}

void TaskScheduler::WorkerLoop() {
  while (true) {
    Task task;
    {
      latch::UniqueLatch lock(mu_);
      // Drain remaining work before honoring shutdown, so a task submitted
      // just before destruction still runs.
      while (tasks_.empty() && !shutdown_) cv_.wait(lock);
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace smoothscan
