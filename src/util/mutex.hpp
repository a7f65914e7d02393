#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

// Annotated mutex primitives for Clang thread-safety analysis.
//
// vw::Mutex wraps std::mutex and carries the `capability("mutex")` attribute
// that libstdc++'s std::mutex lacks, so `-Wthread-safety` can prove that
// every VW_GUARDED_BY field is only touched under its lock. vw::MutexLock is
// the RAII guard (scoped capability); vw::CondVar pairs with vw::Mutex via
// std::condition_variable_any.
//
// All mutex-protected structures in the tree (ThreadPool, MetricsRegistry,
// EventTracer) hold locks for O(small) critical sections
// and never nest them, so there is no lock ordering to encode — EXCLUDES
// annotations on the public entry points are enough to prove non-reentrancy.

namespace vw {

class VW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VW_ACQUIRE() { mu_.lock(); }
  void unlock() VW_RELEASE() { mu_.unlock(); }
  bool try_lock() VW_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over vw::Mutex (the annotated equivalent of std::lock_guard).
class VW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VW_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() VW_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with vw::Mutex. wait() requires the mutex held
/// (condition_variable_any releases and reacquires it internally, which the
/// analysis treats as opaque — the capability is held again on return, so
/// the annotation is exact).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Single wakeup; callers loop on their guarded predicate themselves so
  /// the analysis sees the predicate reads happen under the lock (a lambda
  /// predicate would be analyzed as a lock-free function and rejected).
  void wait(Mutex& mu) VW_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace vw
