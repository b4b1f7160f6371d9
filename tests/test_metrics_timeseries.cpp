#include "metrics/timeseries.h"

#include <gtest/gtest.h>

namespace flashflow::metrics {
namespace {

TEST(TrailingMax, TracksWindow) {
  TrailingMax m(3);
  m.push(5.0);
  EXPECT_DOUBLE_EQ(m.max(), 5.0);
  m.push(3.0);
  m.push(1.0);
  EXPECT_DOUBLE_EQ(m.max(), 5.0);
  m.push(2.0);  // 5 falls out of the window of 3
  EXPECT_DOUBLE_EQ(m.max(), 3.0);
  m.push(0.5);
  EXPECT_DOUBLE_EQ(m.max(), 2.0);
}

TEST(TrailingMax, RisingSequence) {
  TrailingMax m(2);
  for (int i = 1; i <= 10; ++i) {
    m.push(i);
    EXPECT_DOUBLE_EQ(m.max(), i);
  }
}

TEST(TrailingMax, NoSamplesThrows) {
  TrailingMax m(4);
  EXPECT_THROW(m.max(), std::logic_error);
  EXPECT_THROW(TrailingMax(0), std::invalid_argument);
}

TEST(RollingWindowStats, MeanAndStdev) {
  RollingWindowStats s(3);
  s.push(1.0);
  s.push(2.0);
  s.push(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_NEAR(s.stdev(), 0.81649658, 1e-6);
  s.push(5.0);  // window now {2,3,5}
  EXPECT_NEAR(s.mean(), 10.0 / 3.0, 1e-12);
}

TEST(RollingWindowStats, RelativeStdevZeroMean) {
  RollingWindowStats s(2);
  s.push(1.0);
  s.push(-1.0);
  EXPECT_DOUBLE_EQ(s.relative_stdev(), 0.0);
}

TEST(RollingWindowStats, CountSaturatesAtWindow) {
  RollingWindowStats s(2);
  s.push(1.0);
  EXPECT_EQ(s.count(), 1u);
  s.push(1.0);
  s.push(1.0);
  EXPECT_EQ(s.count(), 2u);
}

TEST(SlidingWindowMax, ObservedBandwidthSemantics) {
  // 2-sample windows over a history of 3 window means.
  SlidingWindowMax m(2, 3);
  EXPECT_DOUBLE_EQ(m.max(), 0.0);  // no complete window yet
  m.push(10.0);
  EXPECT_DOUBLE_EQ(m.max(), 0.0);
  m.push(20.0);  // window mean 15
  EXPECT_DOUBLE_EQ(m.max(), 15.0);
  m.push(2.0);  // window mean 11
  EXPECT_DOUBLE_EQ(m.max(), 15.0);
  m.push(0.0);
  m.push(0.0);
  m.push(0.0);  // history now {1, 0, 0}: the 15 expired
  EXPECT_DOUBLE_EQ(m.max(), 1.0);
}

TEST(SlidingWindowMax, RejectsZeroConfig) {
  EXPECT_THROW(SlidingWindowMax(0, 1), std::invalid_argument);
  EXPECT_THROW(SlidingWindowMax(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::metrics
