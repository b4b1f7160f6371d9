#include "core/estimator.h"

#include <gtest/gtest.h>

#include "net/units.h"

namespace flashflow::core {
namespace {

TEST(Estimator, AcceptanceThresholdFormula) {
  Params p;
  const std::vector<double> alloc = {net::mbit(450), net::mbit(450)};
  const auto r = evaluate_estimate(net::mbit(100), alloc, p);
  // threshold = 900 * 0.8 / 2.25 = 320 Mbit/s
  EXPECT_NEAR(net::to_mbit(r.threshold_bits), 320, 0.1);
  EXPECT_TRUE(r.accepted);
}

TEST(Estimator, RejectsTooHighEstimate) {
  Params p;
  const std::vector<double> alloc = {net::mbit(450), net::mbit(450)};
  EXPECT_FALSE(evaluate_estimate(net::mbit(320), alloc, p).accepted);
  EXPECT_FALSE(evaluate_estimate(net::mbit(500), alloc, p).accepted);
}

TEST(Estimator, PaperIdentityCorrectGuessAccepted) {
  // §4.2: if z0 is the true capacity and z < z0(1+eps2), then z passes,
  // because z0(1+eps2) = z0 f (1-eps1)/m = sum(a)(1-eps1)/m.
  Params p;
  const double z0 = net::mbit(200);
  const double required = p.excess_factor() * z0;
  const std::vector<double> alloc = {required};
  const double z = z0 * (1.0 + p.epsilon2) - 1.0;  // just under the bound
  EXPECT_TRUE(evaluate_estimate(z, alloc, p).accepted);
}

TEST(Estimator, NextGuessDoublesAtLeast) {
  EXPECT_DOUBLE_EQ(next_guess(net::mbit(50), net::mbit(100)),
                   net::mbit(200));  // 2*z0 dominates
  EXPECT_DOUBLE_EQ(next_guess(net::mbit(500), net::mbit(100)),
                   net::mbit(500));  // z dominates
}

TEST(Estimator, NewRelayPriorIs75thPercentile) {
  std::vector<double> caps;
  for (int i = 1; i <= 100; ++i) caps.push_back(static_cast<double>(i));
  EXPECT_NEAR(new_relay_prior(caps), 75.25, 0.01);
  const std::vector<double> empty;
  EXPECT_THROW(new_relay_prior(empty), std::invalid_argument);
}

// Property sweep: the acceptance rule is monotone — more allocation can
// only make acceptance easier for a fixed estimate.
class AcceptMonotone : public ::testing::TestWithParam<double> {};

TEST_P(AcceptMonotone, MonotoneInAllocation) {
  Params p;
  const double z = net::mbit(GetParam());
  bool was_accepted = false;
  for (double total = 100; total <= 4000; total += 100) {
    const std::vector<double> alloc = {net::mbit(total)};
    const bool now = evaluate_estimate(z, alloc, p).accepted;
    if (was_accepted) {
      EXPECT_TRUE(now);
    }
    was_accepted = now;
  }
}

INSTANTIATE_TEST_SUITE_P(EstimateSweep, AcceptMonotone,
                         ::testing::Values(10.0, 100.0, 250.0, 500.0, 890.0));

}  // namespace
}  // namespace flashflow::core
