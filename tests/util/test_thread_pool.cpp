#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vcopt::util {
namespace {

TEST(ThreadPool, SingleThreadRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 8u);
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], caller);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, PartitionIsDeterministic) {
  ThreadPool pool(3);
  auto boundaries = [&] {
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({b, e});
    });
    return chunks;
  };
  const auto first = boundaries();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(boundaries(), first);
  // 10 over 3 chunks, balanced to within one element: 4+3+3.
  const std::set<std::pair<std::size_t, std::size_t>> expect{
      {0, 4}, {4, 7}, {7, 10}};
  EXPECT_EQ(first, expect);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, MaxChunksCapsPartition) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      100, [&](std::size_t, std::size_t) { chunks.fetch_add(1); }, 2);
  EXPECT_EQ(chunks.load(), 2);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t b, std::size_t e) {
    EXPECT_TRUE(pool.in_worker());
    // Re-entrant use must not enqueue (the pool could deadlock on itself).
    pool.parallel_for(3, [&](std::size_t ib, std::size_t ie) {
      inner_total.fetch_add(static_cast<int>(ie - ib));
    });
    (void)b;
    (void)e;
  });
  // Each of the (up to 2) chunks ran the inner loop over 3 elements.
  EXPECT_GT(inner_total.load(), 0);
  EXPECT_EQ(inner_total.load() % 3, 0);
  EXPECT_FALSE(pool.in_worker());
}

TEST(ThreadPool, TaskExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(4, [&](std::size_t b, std::size_t e) {
    ok.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ok.load(), 4);
}

// Concurrent parallel_for batches from independent caller threads share one
// pool; every batch must complete with full coverage (TSan exercises the
// queue and completion bookkeeping here).
TEST(ThreadPool, ConcurrentBatchesFromMultipleCallers) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int iter = 0; iter < 20; ++iter) {
        pool.parallel_for(kN, [&](std::size_t b, std::size_t e) {
          totals[c].fetch_add(static_cast<int>(e - b));
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c].load(), static_cast<int>(kN) * 20);
  }
}

TEST(ThreadPool, ConfiguredThreadsHonoursEnv) {
  const char* old = std::getenv("VCOPT_THREADS");
  const std::string saved = old ? old : "";
  setenv("VCOPT_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::configured_threads(), 3u);
  setenv("VCOPT_THREADS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
  setenv("VCOPT_THREADS", "garbage", 1);
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
  setenv("VCOPT_THREADS", "100000", 1);  // clamped
  EXPECT_EQ(ThreadPool::configured_threads(), 256u);
  if (old) {
    setenv("VCOPT_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("VCOPT_THREADS");
  }
}

}  // namespace
}  // namespace vcopt::util
