#include "exec/thread_pool.h"

#include <algorithm>

namespace sidq {
namespace exec {

namespace {

size_t ResolveWorkers(size_t num_threads) {
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  return std::max<size_t>(1, num_threads);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, obs::MetricsRegistry* metrics)
    : num_workers_(ResolveWorkers(num_threads)) {
  if (metrics != nullptr) {
    tasks_counter_ =
        metrics->counter("exec.pool.tasks", obs::MetricStability::kVolatile);
    rejected_counter_ = metrics->counter("exec.pool.rejected",
                                         obs::MetricStability::kVolatile);
  }
  threads_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Enqueue(std::function<void()> task) {
  {
    // The shutdown check and the push are one step with respect to
    // Shutdown(), so a task is either queued before the workers can see
    // shutdown_ (and is drained) or rejected -- never silently dropped.
    MutexLock lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  tasks_counter_.Increment();
  cv_.NotifyOne();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Condition loop instead of a predicate lambda: the guarded reads of
      // queue_/shutdown_ stay inside this analyzed scope (core/mutex.h).
      while (queue_.empty() && !shutdown_) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace exec
}  // namespace sidq
