#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace flashflow::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(42));
}

TEST(EventQueue, CancelTwiceIsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, EmptyTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.cancel(a);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop().time, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1, [] {});
  q.schedule(5, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 5);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.schedule(17, [] {});
  const auto ev = q.pop();
  EXPECT_EQ(ev.time, 17);
  EXPECT_EQ(ev.id, id);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<SimTime> fired;
  for (int i = 1000; i > 0; --i)
    q.schedule(i, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1], fired[i]);
}

}  // namespace
}  // namespace flashflow::sim
