#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace vcopt::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoAmongSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  q.cancel(id);
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);  // cancelled event does not advance time
}

TEST(EventQueue, CancelUnknownIsNoop) {
  EventQueue q;
  EXPECT_NO_THROW(q.cancel(12345));
}

TEST(EventQueue, PendingCount) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule(1.0, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(4.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(q.schedule(5.0, [] {}));  // equal to now is fine
}

TEST(EventQueue, SchedulingAtNanThrows) {
  // NaN compares false against now(): it must not slip into the heap and
  // break its ordering.
  EventQueue q;
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, SchedulingAtInfinityThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_in(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    q.schedule(t, [&, t] { fired.push_back(t); });
  }
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  EXPECT_EQ(q.pending(), 2u);
}

TEST(EventQueue, RunUntilIncludesBoundaryEvents) {
  EventQueue q;
  int count = 0;
  q.schedule(2.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 1);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(1.0, recurse);
  };
  q.schedule(0.0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, CancelInsideEvent) {
  EventQueue q;
  bool second_ran = false;
  EventId second = 0;
  q.schedule(1.0, [&] { q.cancel(second); });
  second = q.schedule(2.0, [&] { second_ran = true; });
  q.run();
  EXPECT_FALSE(second_ran);
}

}  // namespace
}  // namespace vcopt::sim
