#include "sim/time.h"

#include <gtest/gtest.h>

namespace flashflow::sim {
namespace {

TEST(TimeHelpers, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
  EXPECT_EQ(from_seconds(0.0000004), 0);  // rounds to nearest microsecond
  EXPECT_EQ(kDay, 86'400'000'000LL);
}

}  // namespace
}  // namespace flashflow::sim
