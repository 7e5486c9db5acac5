#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>

namespace vcopt::util {

namespace {

// Set to the owning pool while a thread runs one of its tasks; lets
// parallel_for detect re-entrant use and fall back to inline execution.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode: no workers at all
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::in_worker() const { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.wait(mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t max_chunks) {
  if (n == 0) return;

  std::size_t chunks = max_chunks == 0 ? size() : std::min(max_chunks, size());
  chunks = std::min(std::max<std::size_t>(chunks, 1), n);

  // Inline path: no workers, a single chunk, or a nested call from inside
  // one of our own tasks (enqueueing there could deadlock the pool).
  if (chunks <= 1 || workers_.empty() || in_worker()) {
    fn(0, n);
    return;
  }

  // Deterministic partition: the first (n % chunks) chunks get one extra
  // element, so chunk boundaries depend only on (n, chunks).
  struct Batch {
    Mutex mu;
    CondVar done_cv;
    std::size_t pending VCOPT_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error VCOPT_GUARDED_BY(mu);
  };
  auto batch = std::make_shared<Batch>();
  {
    MutexLock lock(batch->mu);
    batch->pending = chunks;
  }

  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::size_t begin = 0;
  {
    MutexLock lock(mu_);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t len = base + (c < extra ? 1 : 0);
      const std::size_t end = begin + len;
      queue_.emplace_back([batch, &fn, begin, end] {
        try {
          fn(begin, end);
        } catch (...) {
          MutexLock l(batch->mu);
          if (!batch->first_error) batch->first_error = std::current_exception();
        }
        {
          MutexLock l(batch->mu);
          --batch->pending;
        }
        batch->done_cv.notify_one();
      });
      begin = end;
    }
  }
  work_cv_.notify_all();

  std::exception_ptr first_error;
  {
    MutexLock lock(batch->mu);
    while (batch->pending != 0) batch->done_cv.wait(batch->mu);
    first_error = batch->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::configured_threads() {
  if (const char* env = std::getenv("VCOPT_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(std::min<long>(v, 256));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

}  // namespace vcopt::util
