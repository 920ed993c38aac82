#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hsim::sim {
namespace {

TEST(EventQueueTest, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  q.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  q.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), milliseconds(30));
}

TEST(EventQueueTest, SameTimeEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Time fired_at = -1;
  q.schedule_at(milliseconds(10), [&] {
    q.schedule_in(milliseconds(5), [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, milliseconds(15));
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  Time fired_at = -1;
  q.schedule_at(milliseconds(10), [&] {
    q.schedule_at(milliseconds(2), [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_EQ(fired_at, milliseconds(10));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  TimerId id = q.schedule_at(milliseconds(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelReturnsFalseForUnknownOrAlreadyRun) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(TimerId{}));
  EXPECT_FALSE(q.cancel(TimerId{999}));
  TimerId id = q.schedule_at(0, [] {});
  q.run();
  // Cancelling after execution is accepted lazily but has no effect; the
  // important property is that double-cancel of a fresh id is rejected.
  TimerId id2 = q.schedule_at(milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(id2));
  EXPECT_FALSE(q.cancel(id2));
  (void)id;
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.schedule_at(milliseconds(10), [&] { ++count; });
  q.schedule_at(milliseconds(20), [&] { ++count; });
  q.schedule_at(milliseconds(30), [&] { ++count; });
  EXPECT_EQ(q.run_until(milliseconds(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), milliseconds(20));
  q.run();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, RunUntilAdvancesClockToDeadlineWhenEventsRemain) {
  EventQueue q;
  q.schedule_at(milliseconds(100), [] {});
  q.run_until(milliseconds(50));
  EXPECT_EQ(q.now(), milliseconds(50));
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) q.schedule_in(milliseconds(1), recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), milliseconds(99));
}

TEST(EventQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  TimerId a = q.schedule_at(milliseconds(1), [] {});
  q.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, CancelAfterRunLeavesQueueEmpty) {
  EventQueue q;
  const TimerId ran = q.schedule_at(milliseconds(1), [] {});
  q.run();
  // Lazy cancellation accepts an id whose event already ran; the stale id
  // must not leak into pending() or empty().
  EXPECT_TRUE(q.cancel(ran));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  q.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(TimerTest, ArmAndFire) {
  EventQueue q;
  Timer t(q);
  bool fired = false;
  t.arm(milliseconds(10), [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RearmReplacesPrevious) {
  EventQueue q;
  Timer t(q);
  int which = 0;
  t.arm(milliseconds(10), [&] { which = 1; });
  t.arm(milliseconds(20), [&] { which = 2; });
  q.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(q.now(), milliseconds(20));
}

TEST(TimerTest, CancelStopsFire) {
  EventQueue q;
  Timer t(q);
  bool fired = false;
  t.arm(milliseconds(10), [&] { fired = true; });
  t.cancel();
  q.run();
  EXPECT_FALSE(fired);
}

TEST(TimerTest, DestructionCancels) {
  EventQueue q;
  bool fired = false;
  {
    Timer t(q);
    t.arm(milliseconds(10), [&] { fired = true; });
  }
  q.run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace hsim::sim
