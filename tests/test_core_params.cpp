#include "core/params.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flashflow::core {
namespace {

TEST(Params, DefaultsValidate) {
  EXPECT_NO_THROW(Params{}.validate());
}

TEST(Params, RejectsNonPositiveSockets) {
  Params p;
  p.sockets = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.sockets = -160;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, RejectsMultiplierBelowOne) {
  Params p;
  p.multiplier = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.multiplier = -2.25;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // m < 1 allocates less than the prior: no second can meet the
  // aggregation's a_cov >= A/m bar, so every slot would fail.
  p.multiplier = 0.9;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.multiplier = 1.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, RejectsNonPositiveSlotSeconds) {
  Params p;
  p.slot_seconds = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.slot_seconds = -30;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, RejectsEpsilon1AtOrAboveOne) {
  Params p;
  p.epsilon1 = 1.0;  // excess factor divides by 1 - eps1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.epsilon1 = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.epsilon1 = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.epsilon1 = 0.999;
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, RejectsNegativeEpsilon2) {
  Params p;
  p.epsilon2 = -0.05;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, RejectsRatioAtOrAboveOne) {
  Params p;
  p.ratio = 1.0;  // background clamp divides by 1 - r
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.ratio = -0.25;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.ratio = 0.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, RejectsBadCheckProbabilityAndPeriod) {
  Params p;
  p.check_probability = -1e-5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.check_probability = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.period = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::core
