#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
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

TEST(EventQueueTest, CancelReturnsFalseForNullUnknownOrRepeatedId) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(TimerId{}));
  EXPECT_FALSE(q.cancel(TimerId{999}));
  const TimerId id = q.schedule_at(milliseconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
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
  // The id went stale when its event ran: cancel refuses it, and nothing
  // leaks into pending() or empty().
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  q.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StaleIdNeverCancelsTheSlotsNextEvent) {
  EventQueue q;
  const TimerId ran = q.schedule_at(milliseconds(1), [] {});
  q.run();
  // The only free slot is the one `ran` named, so this event reuses it.
  const TimerId cancelled = q.schedule_at(milliseconds(2), [] {});
  EXPECT_NE(ran, cancelled);
  EXPECT_TRUE(q.cancel(cancelled));
  q.run();  // pops the cancelled node, freeing the slot again
  int runs = 0;
  q.schedule_at(milliseconds(3), [&] { ++runs; });
  EXPECT_FALSE(q.cancel(ran));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueTest, CancelReleasesCapturesAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const TimerId id = q.schedule_at(milliseconds(1), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);  // not at pop: nothing has run yet
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueTest, PendingStaysExactAcrossCancelsAndCompaction) {
  EventQueue q;
  std::vector<TimerId> ids;
  for (int i = 0; i < 4000; ++i) {
    ids.push_back(q.schedule_at(milliseconds(1 + i), [] {}));
  }
  // Cancel three in four, interleaved with fresh schedules; the dead count
  // passes 1024 and half the heap, so a compaction runs along the way.
  std::size_t live = ids.size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 4 == 0) continue;
    EXPECT_TRUE(q.cancel(ids[i]));
    --live;
    if (i % 16 == 1) {
      q.schedule_at(milliseconds(10'000), [] {});
      ++live;
    }
    ASSERT_EQ(q.pending(), live);
  }
  EXPECT_FALSE(q.empty());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 4 != 0) {
      EXPECT_FALSE(q.cancel(ids[i]));
    }
  }
  EXPECT_EQ(q.pending(), live);
  EXPECT_EQ(q.run(), live);
  EXPECT_EQ(q.pending(), 0u);
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

TEST(TimerTest, RearmFromOwnCallbackFiresOnceAtNewTime) {
  EventQueue q;
  Timer t(q);
  std::vector<Time> fired;
  t.arm(milliseconds(10), [&] {
    fired.push_back(q.now());
    t.arm(milliseconds(5), [&] { fired.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(10), milliseconds(15)}));
  EXPECT_FALSE(t.armed());
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
