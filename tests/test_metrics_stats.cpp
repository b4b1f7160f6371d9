#include "metrics/stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace flashflow::metrics {
namespace {

const std::vector<double> kSample = {4.0, 1.0, 3.0, 2.0, 5.0};

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(mean(as_span(kSample)), 3.0); }

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(median(as_span(kSample)), 3.0); }

TEST(Stats, MedianEvenAveragesMiddle) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(median(as_span(v)), 2.5);
}

TEST(Stats, MedianSingleton) {
  const std::vector<double> v = {7.5};
  EXPECT_DOUBLE_EQ(median(as_span(v)), 7.5);
}

TEST(Stats, StdevOfConstantIsZero) {
  const std::vector<double> v = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(stdev(as_span(v)), 0.0);
}

TEST(Stats, StdevKnownValue) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stdev(as_span(v)), 2.0);  // classic example
}

TEST(Stats, PercentileEndpoints) {
  EXPECT_DOUBLE_EQ(percentile(as_span(kSample), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(as_span(kSample), 100.0), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(as_span(v), 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(as_span(v), 50.0), 5.0);
}

TEST(Stats, PercentileRejectsBadQ) {
  EXPECT_THROW(percentile(as_span(kSample), -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(as_span(kSample), 101.0), std::invalid_argument);
}

TEST(Stats, PercentileRejectsNaN) {
  // NaN passes a `q < 0 || q > 100` check, and its rank has no index; a
  // NaN element breaks the ordering selection and sorting rely on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(percentile(as_span(kSample), nan), std::invalid_argument);
  std::vector<double> with_nan = {1.0, nan, 3.0};
  EXPECT_THROW(median(as_span(with_nan)), std::invalid_argument);
  EXPECT_THROW(percentile_in_place(with_nan, 50.0), std::invalid_argument);
  std::vector<double> scratch = kSample;
  EXPECT_THROW(percentile_in_place(scratch, nan), std::invalid_argument);
}

TEST(Stats, PercentileInPlaceMatchesPercentile) {
  std::vector<double> scratch = kSample;
  EXPECT_EQ(percentile_in_place(scratch, 50.0), 3.0);
  scratch = {0.0, 10.0};
  EXPECT_EQ(percentile_in_place(scratch, 25.0), 2.5);
  std::vector<double> empty;
  EXPECT_THROW(percentile_in_place(empty, 50.0), std::invalid_argument);
}

TEST(Stats, MaxValue) {
  EXPECT_DOUBLE_EQ(max_value(as_span(kSample)), 5.0);
}

TEST(Stats, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(median(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(stdev(as_span(empty)), std::invalid_argument);
  EXPECT_THROW(max_value(as_span(empty)), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::metrics
