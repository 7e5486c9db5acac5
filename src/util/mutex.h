// Annotated mutex wrappers: util::Mutex / util::MutexLock / util::CondVar.
//
// These are std::mutex / std::lock_guard / std::condition_variable with the
// thread-safety capability attributes (util/thread_annotations.h) attached,
// so Clang's `-Wthread-safety` analysis can prove at compile time that every
// VCOPT_GUARDED_BY field is only touched under its lock.  Everything outside
// src/util/ must use these wrappers instead of the raw std types — enforced
// by the `vcopt-raw-mutex` lint rule (tools/lint.py).
//
// CondVar deliberately has no predicate-taking wait: a predicate lambda is a
// separate function the analysis cannot see the lock through, so guarded
// reads inside it would need their own annotations.  Write the loop form
// instead — the condition then sits in the annotated caller's body:
//
//   util::MutexLock lock(mu_);
//   while (!ready_) cv_.wait(mu_);   // ready_ is VCOPT_GUARDED_BY(mu_)
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace vcopt::util {

/// std::mutex as a thread-safety capability.  Prefer MutexLock over manual
/// lock()/unlock() pairing.
class VCOPT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VCOPT_ACQUIRE() { m_.lock(); }
  void unlock() VCOPT_RELEASE() { m_.unlock(); }
  bool try_lock() VCOPT_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock: acquires on construction, releases on destruction.
class VCOPT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VCOPT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() VCOPT_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for util::Mutex.  wait() requires the mutex to be
/// held and holds it again on return (the release/reacquire inside the wait
/// is invisible to the analysis, matching the capability contract of a
/// condition wait).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified.  Spurious wakeups happen: always wait in a
  /// `while (!condition)` loop.
  void wait(Mutex& mu) VCOPT_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership so the caller's MutexLock keeps control.
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vcopt::util
