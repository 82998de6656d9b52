#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"

namespace sidq {
namespace exec {

// Fixed-size thread pool over one shared FIFO queue: every idle worker
// takes the oldest queued task, so a slow task occupies one worker while
// the rest keep draining the queue. Callers submit whole batches from one
// thread (fleet shards, replay shards) and tasks never submit tasks, so a
// single mutex-guarded queue balances as well as per-worker deques would,
// with one lock per task instead of two.
//
// Error propagation follows the repo-wide Status idiom: tasks return
// Status / StatusOr<T> *by value* through the future -- the pool never
// traffics in exceptions. Shutdown is graceful: every task queued before
// Shutdown() runs to completion before the workers join, so futures
// obtained from Submit() never dangle. A task submitted at or after the
// start of Shutdown() is rejected: its future resolves immediately to
// Status::Unavailable (never silently dropped), so racing producers always
// learn the fate of their work.
//
// This is the only place in the tree allowed to spawn std::thread
// (sidq-lint rule R6); everything else parallelizes through this pool.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1; pass 0 to use
  // std::thread::hardware_concurrency()). With a registry, the pool counts
  // exec.pool.{tasks,rejected} -- both kVolatile, since whether a
  // submission races shutdown is pure OS scheduling, exactly what the
  // determinism contract keeps out of golden snapshots.
  explicit ThreadPool(size_t num_threads,
                      obs::MetricsRegistry* metrics = nullptr);
  // Graceful: equivalent to Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return num_workers_; }

  // Enqueues `fn` and returns a future for its result. Submitting from
  // multiple threads is safe. Once Shutdown() has begun the task is NOT
  // run: the future resolves to Status::Unavailable (the result type must
  // be constructible from Status -- the repo-wide Status/StatusOr idiom),
  // so a submission racing Shutdown() is reported, not dropped.
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    static_assert(std::is_constructible_v<R, Status>,
                  "ThreadPool tasks must return Status or StatusOr<T> so "
                  "post-Shutdown rejection can be reported through the "
                  "future");
    // packaged_task is move-only but std::function requires copyable
    // callables, so the task lives behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    if (!Enqueue([task] { (*task)(); })) {
      rejected_counter_.Increment();
      std::packaged_task<R()> reject([]() -> R {
        return Status::Unavailable("task submitted after ThreadPool shutdown");
      });
      future = reject.get_future();
      reject();
    }
    return future;
  }

  // Drains every queued task, then joins the workers. Idempotent.
  void Shutdown() SIDQ_EXCLUDES(mu_);

 private:
  // False when the pool is shutting down (task not queued).
  [[nodiscard]] bool Enqueue(std::function<void()> task) SIDQ_EXCLUDES(mu_);
  void WorkerLoop() SIDQ_EXCLUDES(mu_);

  const size_t num_workers_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SIDQ_GUARDED_BY(mu_);
  bool shutdown_ SIDQ_GUARDED_BY(mu_) = false;

  // Detached no-ops when the pool was built without a registry.
  obs::Counter tasks_counter_;
  obs::Counter rejected_counter_;
};

}  // namespace exec
}  // namespace sidq
