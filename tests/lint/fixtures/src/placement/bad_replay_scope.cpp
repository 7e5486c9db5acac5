// Lint self-test fixture (never compiled): the planner decides every grant,
// so the replay-determinism rules cover src/placement/ and src/cluster/ as
// well as the serving directories.  Classifies as src/placement/ via
// --fixture-root.
#include <chrono>
#include <unordered_set>

namespace fixture {

void hits() {
  const auto t0 = std::chrono::steady_clock::now();
  std::unordered_set<int> seen_names;
  (void)t0; (void)seen_names;
}

}  // namespace fixture
