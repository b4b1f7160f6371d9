#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace flashflow::sim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<SimTime> seen;
  s.schedule_at(5 * kSecond, [&] { seen.push_back(s.now()); });
  s.schedule_at(2 * kSecond, [&] { seen.push_back(s.now()); });
  s.run_until(5 * kSecond);
  EXPECT_EQ(seen, (std::vector<SimTime>{2 * kSecond, 5 * kSecond}));
  EXPECT_EQ(s.now(), 5 * kSecond);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  SimTime fired_at = -1;
  s.schedule_in(3 * kSecond, [&] {
    s.schedule_in(2 * kSecond, [&] { fired_at = s.now(); });
  });
  s.run_until(kDay);
  EXPECT_EQ(fired_at, 5 * kSecond);
}

TEST(Simulator, SchedulePastThrows) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.run_until(10);
  EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1 * kSecond, [&] { ++fired; });
  s.schedule_at(10 * kSecond, [&] { ++fired; });
  s.run_until(5 * kSecond);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5 * kSecond);  // clock lands exactly on the deadline
  s.run_until(20 * kSecond);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicTaskRunsUntilFalse) {
  Simulator s;
  int count = 0;
  s.schedule_every(kSecond, [&] {
    ++count;
    return count < 5;
  });
  s.run_until(5 * kSecond);
  EXPECT_EQ(count, 5);
  s.run_until(kDay);  // the task returned false: nothing is rescheduled
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicRejectsNonPositiveInterval) {
  Simulator s;
  EXPECT_THROW(s.schedule_every(0, [] { return false; }),
               std::invalid_argument);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(5, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_until(kDay);
  EXPECT_FALSE(fired);
}

TEST(TimeHelpers, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
  EXPECT_EQ(from_seconds(0.0000004), 0);  // rounds to nearest microsecond
  EXPECT_EQ(kDay, 86'400'000'000LL);
}

}  // namespace
}  // namespace flashflow::sim
