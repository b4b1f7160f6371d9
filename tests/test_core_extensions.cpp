// Tests for the Appendix E.3 measurement-duration strategy.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/strategies.h"

namespace flashflow::core {
namespace {

TEST(Strategies, MedianOfPrefix) {
  const std::vector<double> samples = {1, 2, 3, 4, 100, 100};
  EXPECT_DOUBLE_EQ(median_strategy(samples, 3), 2.0);
  EXPECT_DOUBLE_EQ(median_strategy(samples, 6), 3.5);
  EXPECT_THROW(median_strategy(samples, 0), std::invalid_argument);
  EXPECT_THROW(median_strategy(samples, 7), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::core
