#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "sim/random.h"

namespace flashflow::fault {
namespace {

FaultSpec all_channels(double rate) {
  FaultSpec spec;
  spec.measurer_crash = rate;
  spec.relay_disconnect = rate;
  spec.report_drop = rate;
  spec.report_truncate = rate;
  spec.slot_timeout = rate;
  return spec;
}

TEST(FaultSpec, DefaultIsInert) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.validate();  // must not throw
  EXPECT_FALSE(FaultPlan().enabled());
  EXPECT_FALSE(FaultPlan(spec, 42).enabled());
}

TEST(FaultSpec, AnyPositiveRateEnables) {
  for (const auto field :
       {&FaultSpec::measurer_crash, &FaultSpec::relay_disconnect,
        &FaultSpec::report_drop, &FaultSpec::report_truncate,
        &FaultSpec::slot_timeout}) {
    FaultSpec spec;
    spec.*field = 0.01;
    EXPECT_TRUE(spec.enabled());
    EXPECT_TRUE(FaultPlan(spec, 42).enabled());
  }
}

TEST(FaultSpec, ValidateRejectsOutOfRange) {
  for (const auto field :
       {&FaultSpec::measurer_crash, &FaultSpec::relay_disconnect,
        &FaultSpec::report_drop, &FaultSpec::report_truncate,
        &FaultSpec::slot_timeout}) {
    FaultSpec low;
    low.*field = -0.1;
    EXPECT_THROW(low.validate(), std::invalid_argument);
    FaultSpec high;
    high.*field = 1.5;
    EXPECT_THROW(high.validate(), std::invalid_argument);
  }
  FaultSpec retries;
  retries.max_retries = -1;
  EXPECT_THROW(retries.validate(), std::invalid_argument);
  FaultSpec usable;
  usable.min_usable_seconds = 0;
  EXPECT_THROW(usable.validate(), std::invalid_argument);
}

TEST(FaultSpec, ArmedEvidenceFloorMustFitTheSlot) {
  // Armed faults whose floor exceeds the slot would fail every slot.
  FaultSpec armed = all_channels(0.05);
  armed.min_usable_seconds = 5;
  EXPECT_NO_THROW(armed.validate(5));
  EXPECT_THROW(armed.validate(4), std::invalid_argument);
  // Policy knobs alone arm nothing: an inert spec is never rejected.
  FaultSpec inert;
  inert.min_usable_seconds = 5;
  EXPECT_NO_THROW(inert.validate(4));
  // The slot-length overload keeps every single-field rule.
  inert.min_usable_seconds = 0;
  EXPECT_THROW(inert.validate(30), std::invalid_argument);
}

// Fault occurrence is a pure function of (seed, slot, entity): asking the
// same question twice — or from a plan built twice — gives the same
// answer. This is what makes retry scheduling and multi-threaded
// execution reproducible.
TEST(FaultPlan, QueriesArePureFunctions) {
  const FaultSpec spec = all_channels(0.3);
  const FaultPlan a(spec, 20210613);
  const FaultPlan b(spec, 20210613);
  const std::uint64_t relay = sim::hash_tag("relay/alpha");
  const std::uint64_t host = sim::hash_tag("host/US-E");
  for (std::uint64_t slot = 0; slot < 64; ++slot) {
    EXPECT_EQ(a.slot_timeout(slot), b.slot_timeout(slot));
    EXPECT_EQ(a.slot_timeout(slot), a.slot_timeout(slot));
    EXPECT_EQ(a.relay_disconnect_second(slot, relay, 30),
              b.relay_disconnect_second(slot, relay, 30));
    EXPECT_EQ(a.measurer_crash_second(slot, host, 30),
              b.measurer_crash_second(slot, host, 30));
    EXPECT_EQ(a.report_seconds(slot, relay, host, 30),
              b.report_seconds(slot, relay, host, 30));
  }
}

TEST(FaultPlan, SeedChangesOutcomes) {
  const FaultSpec spec = all_channels(0.5);
  const FaultPlan a(spec, 1);
  const FaultPlan b(spec, 2);
  const std::uint64_t relay = sim::hash_tag("relay/alpha");
  int differing = 0;
  for (std::uint64_t slot = 0; slot < 256; ++slot)
    differing += a.relay_disconnect_second(slot, relay, 30) !=
                 b.relay_disconnect_second(slot, relay, 30);
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, ZeroRateChannelNeverFires) {
  FaultSpec spec;
  spec.relay_disconnect = 1.0;  // other channels stay zero
  const FaultPlan plan(spec, 20210613);
  const std::uint64_t relay = sim::hash_tag("relay/alpha");
  const std::uint64_t host = sim::hash_tag("host/US-E");
  for (std::uint64_t slot = 0; slot < 128; ++slot) {
    EXPECT_FALSE(plan.slot_timeout(slot));
    EXPECT_EQ(plan.measurer_crash_second(slot, host, 30), -1);
    EXPECT_EQ(plan.report_seconds(slot, relay, host, 30), 30);
    // ... while the armed channel fires every time at rate 1.
    EXPECT_NE(plan.relay_disconnect_second(slot, relay, 30), -1);
  }
}

TEST(FaultPlan, HigherRateFiresMoreOften) {
  const std::uint64_t relay = sim::hash_tag("relay/alpha");
  const auto disconnects = [&](double rate) {
    FaultSpec spec;
    spec.relay_disconnect = rate;
    const FaultPlan plan(spec, 20210613);
    int fired = 0;
    for (std::uint64_t slot = 0; slot < 1000; ++slot)
      fired += plan.relay_disconnect_second(slot, relay, 30) != -1;
    return fired;
  };
  const int low = disconnects(0.05);
  const int high = disconnects(0.5);
  // ~50 vs ~500 expected; wide margins keep this robust to RNG detail.
  EXPECT_GT(low, 0);
  EXPECT_LT(low, 200);
  EXPECT_GT(high, 300);
  EXPECT_GT(high, 2 * low);
}

// Crash/disconnect seconds land strictly inside the slot: second 0 would
// be indistinguishable from a whole-slot timeout, and slot_seconds would
// be no fault at all. Truncated reports keep at least one second.
TEST(FaultPlan, FaultSecondsLandInsideTheSlot) {
  const FaultSpec spec = all_channels(1.0);
  const FaultPlan plan(spec, 7);
  const std::uint64_t relay = sim::hash_tag("relay/alpha");
  const std::uint64_t host = sim::hash_tag("host/US-E");
  for (std::uint64_t slot = 0; slot < 500; ++slot) {
    const int down = plan.relay_disconnect_second(slot, relay, 30);
    ASSERT_GE(down, 1);
    ASSERT_LT(down, 30);
    const int crash = plan.measurer_crash_second(slot, host, 30);
    ASSERT_GE(crash, 1);
    ASSERT_LT(crash, 30);
    const int reported = plan.report_seconds(slot, relay, host, 30);
    ASSERT_GE(reported, 0);
    ASSERT_LE(reported, 30);
  }
}

// Distinct entities in the same slot draw independent faults — a
// disconnect for one relay must not imply one for its slot-mates.
TEST(FaultPlan, EntitiesDrawIndependently) {
  FaultSpec spec;
  spec.relay_disconnect = 0.5;
  const FaultPlan plan(spec, 20210613);
  const std::uint64_t a = sim::hash_tag("relay/alpha");
  const std::uint64_t b = sim::hash_tag("relay/beta");
  int differing = 0;
  for (std::uint64_t slot = 0; slot < 256; ++slot)
    differing += (plan.relay_disconnect_second(slot, a, 30) == -1) !=
                 (plan.relay_disconnect_second(slot, b, 30) == -1);
  EXPECT_GT(differing, 0);
}

}  // namespace
}  // namespace flashflow::fault
