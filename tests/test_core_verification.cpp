#include "core/verification.h"

#include <gtest/gtest.h>


namespace flashflow::core {
namespace {

TEST(Verification, EvasionProbabilityFormula) {
  EXPECT_DOUBLE_EQ(evasion_probability(0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(evasion_probability(0.5, 1), 0.5);
  EXPECT_NEAR(evasion_probability(0.5, 2), 0.25, 1e-12);
  // Paper's p = 1e-5: forging a full 30 s slot at 250 Mbit/s (~1.8M cells)
  // evades with probability (1-1e-5)^1.8e6 ~ 1.5e-8.
  EXPECT_LT(evasion_probability(1e-5, 1'800'000), 1e-7);
}

TEST(Verification, EvasionRejectsBadP) {
  EXPECT_THROW(evasion_probability(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(evasion_probability(1.1, 1), std::invalid_argument);
}

TEST(Verification, SampleDetectionHighVolumeAlwaysCaught) {
  sim::Rng rng(3);
  // 1 GB of forged traffic at p=1e-5: detection is essentially certain.
  int detected = 0;
  for (int i = 0; i < 50; ++i)
    if (sample_detection(1e-5, 1e9, 514.0, rng)) ++detected;
  EXPECT_EQ(detected, 50);
}

TEST(Verification, SampleDetectionZeroBytesNeverCaught) {
  sim::Rng rng(4);
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(sample_detection(1e-5, 100.0, 514.0, rng));  // <1 cell
}

TEST(Verification, SampleDetectionRate) {
  sim::Rng rng(5);
  // ~693 cells at p=1e-3: detection probability = 1-(1-p)^693 ~ 0.5.
  const double bytes = 693 * 514.0;
  int detected = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i)
    if (sample_detection(1e-3, bytes, 514.0, rng)) ++detected;
  EXPECT_NEAR(static_cast<double>(detected) / trials, 0.5, 0.05);
}

TEST(Verification, SampleDetectionRejectsBadCellSize) {
  sim::Rng rng(6);
  EXPECT_THROW(sample_detection(0.5, 100.0, 0.0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::core
