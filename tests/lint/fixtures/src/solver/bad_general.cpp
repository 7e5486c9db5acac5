// Lint self-test fixture (never compiled): general src/ rules — raw std
// synchronisation types outside util/, raw new/delete, rand(), iostream
// logging.  Classifies as src/solver/ via --fixture-root, which is NOT
// replay-critical, so none of the vcopt-*-in-replay rules may fire here
// (the steady_clock read below proves that).
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace fixture {

void hits() {
  std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_lock<std::mutex> ulock(mu);
  std::condition_variable cv;
  int* leak = new int(7);
  delete leak;
  const int r = rand();
  std::cout << "chatty library code\n";
  printf("chattier still\n");
  (void)cv; (void)r;
}

void not_flagged_here() {
  // Wall clock outside the replay-critical directories: allowed (perf code
  // needs timers).
  const auto t0 = std::chrono::steady_clock::now();
  (void)t0;
  // Annotated intentional leak: suppressed.
  static int* keep = new int(1);  // NOLINT(vcopt-raw-new)
  (void)keep;
  std::mutex legacy;  // NOLINT(vcopt-raw-mutex)
  (void)legacy;
}

}  // namespace fixture
