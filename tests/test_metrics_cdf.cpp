#include "metrics/cdf.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace flashflow::metrics {
namespace {

Cdf make_cdf() {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  return Cdf({v.data(), v.size()});
}

TEST(Cdf, FractionAtMost) {
  Cdf c = make_cdf();
  EXPECT_DOUBLE_EQ(c.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(1.0), 0.2);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(3.5), 0.6);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(5.0), 1.0);
}

TEST(Cdf, QuantileEndpoints) {
  Cdf c = make_cdf();
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 3.0);
}

TEST(Cdf, QuantileRejectsOutOfRange) {
  Cdf c = make_cdf();
  EXPECT_THROW(c.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(c.quantile(1.1), std::invalid_argument);
}

TEST(Cdf, QuantileRejectsNaN) {
  // NaN passes a `q < 0 || q > 1` check, and its rank has no index.
  Cdf c = make_cdf();
  EXPECT_THROW(c.quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Cdf, FractionWithin) {
  Cdf c = make_cdf();
  EXPECT_DOUBLE_EQ(c.fraction_within(2.0, 4.0), 0.6);
  EXPECT_DOUBLE_EQ(c.fraction_within(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(c.fraction_within(6.0, 7.0), 0.0);
}

TEST(Cdf, AddThenQuery) {
  Cdf c;
  c.add(10.0);
  c.add(20.0);
  EXPECT_DOUBLE_EQ(c.fraction_at_most(15.0), 0.5);
  c.add(12.0);  // unsorted insert re-finalizes
  EXPECT_NEAR(c.fraction_at_most(15.0), 2.0 / 3.0, 1e-12);
}

TEST(Cdf, SeriesSpansRangeAndIsMonotone) {
  Cdf c = make_cdf();
  const auto pts = c.series(9);
  ASSERT_EQ(pts.size(), 9u);
  EXPECT_DOUBLE_EQ(pts.front().x, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 5.0);
  EXPECT_DOUBLE_EQ(pts.back().fraction, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].x, pts[i].x);
    EXPECT_LE(pts[i - 1].fraction, pts[i].fraction);
  }
}

TEST(Cdf, EmptyThrows) {
  Cdf c;
  EXPECT_THROW(c.fraction_at_most(1.0), std::logic_error);
  EXPECT_THROW(c.quantile(0.5), std::logic_error);
  EXPECT_THROW(c.series(3), std::logic_error);
}

}  // namespace
}  // namespace flashflow::metrics
