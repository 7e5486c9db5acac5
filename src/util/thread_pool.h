// Fixed-size worker pool for data-parallel scans.  No placement path uses
// it; the served-path benchmark reports the global pool's size.
// Design constraints, in order:
//
//   1. Determinism: parallel_for partitions [0, n) into contiguous chunks
//      with a fixed rule, so the work each task sees never depends on
//      scheduling.  Callers that reduce chunk results deterministically get
//      bit-identical output regardless of thread count or timing.
//   2. No oversubscription surprises: the process-wide pool is sized by
//      VCOPT_THREADS when set, else std::thread::hardware_concurrency().
//      VCOPT_THREADS=1 (or a 1-core host) degrades every parallel_for to an
//      inline serial loop — no worker threads are ever spawned.
//   3. Re-entrancy safety: parallel_for called from inside a worker runs
//      inline instead of enqueueing, so nested parallelism cannot deadlock
//      the pool on itself.
//
// Exceptions thrown by tasks are captured and the first one is rethrown on
// the caller's thread after the batch drains, so invariants (VCOPT_* checks
// abort, but plain throws propagate) keep their usual visibility.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vcopt::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 and 1 both mean "no workers, run inline".
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when the pool runs everything inline).
  std::size_t size() const { return workers_.size(); }

  /// Runs fn(chunk_begin, chunk_end) over a contiguous partition of [0, n)
  /// and blocks until every chunk finished.  The partition depends only on
  /// n, max_chunks and the pool size — never on timing.  `max_chunks` caps
  /// the number of chunks (0 = one per worker); chunks are balanced to
  /// within one element.  With no workers — or when called from inside a
  /// pool task — the chunks run inline on the calling thread, in order.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t max_chunks = 0);

  /// True while the calling thread is executing a task of this pool.
  bool in_worker() const;

  /// Process-wide pool, created on first use.  Sized by VCOPT_THREADS
  /// (clamped to [1, 256]) or hardware_concurrency() when unset/invalid.
  static ThreadPool& global();

  /// The thread count global() uses (reads VCOPT_THREADS once per call —
  /// exposed so benches and docs can report the effective setting).
  static std::size_t configured_threads();

 private:
  void worker_loop();

  Mutex mu_;
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ VCOPT_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // written in the ctor, joined in dtor
  bool stop_ VCOPT_GUARDED_BY(mu_) = false;
};

}  // namespace vcopt::util
