#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

// A small fixed-size worker pool for CPU-bound fan-out (multi-start
// annealing chains, parallel sweeps). Tasks are opaque closures; the pool
// provides no result plumbing — callers write into pre-sized slots so the
// outcome is independent of scheduling order. Tasks must not throw (capture
// exceptions into the result slot instead; an escaping exception terminates
// the process, as with any detached std::thread).
//
// Lock discipline (checked by -Wthread-safety on Clang): queue_, active_ and
// stop_ are only touched under mu_; tasks themselves run with no lock held.

namespace vw {

class ThreadPool {
 public:
  /// Spin up `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads) {
    if (threads == 0) threads = default_thread_count();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_task_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run `fn(0) .. fn(count-1)` across the workers and block until every
  /// one has finished. A caller that runs batches repeatedly (multi-start
  /// annealing in the control loop) keeps one pool alive instead of paying
  /// thread spawn/join per batch. The barrier is whole-pool idleness, so
  /// concurrent batches on one pool also wait for each other. `fn` is
  /// shared by the workers and must be safe to invoke concurrently with
  /// distinct indices.
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& fn)
      VW_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < count; ++i) {
        queue_.push_back([&fn, i] { fn(i); });
      }
    }
    cv_task_.notify_all();
    MutexLock lock(mu_);
    while (!(queue_.empty() && active_ == 0)) cv_idle_.wait(mu_);
  }

  std::size_t thread_count() const { return workers_.size(); }

  static std::size_t default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

 private:
  void worker_loop() VW_EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stop_ && queue_.empty()) cv_task_.wait(mu_);
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      task();
      {
        MutexLock lock(mu_);
        --active_;
        if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
      }
    }
  }

  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::deque<std::function<void()>> queue_ VW_GUARDED_BY(mu_);
  std::size_t active_ VW_GUARDED_BY(mu_) = 0;
  bool stop_ VW_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace vw
