#include "exec/task_scheduler.h"

#include <algorithm>

#include "common/status.h"

namespace smoothscan {

TaskScheduler::TaskScheduler(uint32_t num_workers) {
  SMOOTHSCAN_CHECK(num_workers > 0);
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

TaskScheduler::~TaskScheduler() {
  {
    latch::LatchGuard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void TaskScheduler::Submit(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  {
    latch::LatchGuard lock(mu_);
    if (!started_) {
      started_ = true;
      for (uint32_t i = 0; i < workers_.size(); ++i) {
        workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
      }
    }
    for (auto& task : tasks) {
      workers_[next_deal_]->tasks.push_back(std::move(task));
      next_deal_ = (next_deal_ + 1) % workers_.size();
    }
  }
  // One wake per task: a woken worker keeps taking (and stealing) until the
  // deques run dry, and a busy worker looks again before it sleeps, so no
  // task waits on a missed wake-up.
  const size_t wakes = std::min(tasks.size(), workers_.size());
  for (size_t i = 0; i < wakes; ++i) cv_.notify_one();
}

bool TaskScheduler::TryTake(uint32_t id, Task* out) {
  // Own deque first (front: submission order)...
  Worker& self = *workers_[id];
  if (!self.tasks.empty()) {
    *out = std::move(self.tasks.front());
    self.tasks.pop_front();
    return true;
  }
  // ...then steal from the back of the first busy sibling.
  for (size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(id + k) % workers_.size()];
    if (!victim.tasks.empty()) {
      *out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void TaskScheduler::WorkerLoop(uint32_t id) {
  while (true) {
    Task task;
    {
      latch::UniqueLatch lock(mu_);
      // Drain remaining work before honoring shutdown, so a task submitted
      // just before destruction still runs. (An explicit wait loop rather
      // than a predicate lambda: TryTake REQUIRES(mu_), and the analysis
      // does not propagate the held latch into lambdas.)
      while (!TryTake(id, &task) && !shutdown_) cv_.wait(lock);
      if (task == nullptr) return;  // Shutdown with empty deques.
    }
    task();
  }
}

}  // namespace smoothscan
