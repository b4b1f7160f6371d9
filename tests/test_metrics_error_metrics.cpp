#include "metrics/error_metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace flashflow::metrics {
namespace {

TEST(ErrorMetrics, RelayCapacityErrorEq2) {
  EXPECT_DOUBLE_EQ(relay_capacity_error(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(relay_capacity_error(100.0, 100.0), 0.0);
  // Over-advertising yields negative error, as the equation implies.
  EXPECT_DOUBLE_EQ(relay_capacity_error(150.0, 100.0), -0.5);
}

TEST(ErrorMetrics, RelayCapacityErrorRejectsBadCapacity) {
  EXPECT_THROW(relay_capacity_error(1.0, 0.0), std::invalid_argument);
}

TEST(ErrorMetrics, NetworkCapacityErrorEq3) {
  const std::vector<double> adv = {50.0, 100.0};
  const std::vector<double> cap = {100.0, 200.0};
  EXPECT_DOUBLE_EQ(network_capacity_error(adv, cap), 0.5);
}

TEST(ErrorMetrics, NetworkCapacityErrorWeighsBigRelays) {
  // A large accurate relay dominates a small inaccurate one.
  const std::vector<double> adv = {1.0, 1000.0};
  const std::vector<double> cap = {100.0, 1000.0};
  EXPECT_NEAR(network_capacity_error(adv, cap), 99.0 / 1100.0, 1e-12);
}

TEST(ErrorMetrics, NetworkCapacityErrorRejectsMismatch) {
  const std::vector<double> a = {1.0};
  const std::vector<double> c = {1.0, 2.0};
  EXPECT_THROW(network_capacity_error(a, c), std::invalid_argument);
}

TEST(ErrorMetrics, NormalizeSumsToOne) {
  const std::vector<double> v = {1.0, 3.0};
  const auto n = normalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.25);
  EXPECT_DOUBLE_EQ(n[1], 0.75);
}

TEST(ErrorMetrics, NormalizeRejectsZeroSum) {
  const std::vector<double> v = {0.0, 0.0};
  EXPECT_THROW(normalize(v), std::invalid_argument);
}

TEST(ErrorMetrics, RelayWeightErrorEq5) {
  EXPECT_DOUBLE_EQ(relay_weight_error(0.2, 0.1), 2.0);   // over-weighted
  EXPECT_DOUBLE_EQ(relay_weight_error(0.05, 0.1), 0.5);  // under-weighted
  EXPECT_THROW(relay_weight_error(0.1, 0.0), std::invalid_argument);
}

TEST(ErrorMetrics, NetworkWeightErrorIsTotalVariation) {
  const std::vector<double> w = {0.5, 0.5};
  const std::vector<double> c = {0.9, 0.1};
  EXPECT_DOUBLE_EQ(network_weight_error(w, c), 0.4);
}

TEST(ErrorMetrics, NetworkWeightErrorZeroWhenPerfect) {
  const std::vector<double> w = {0.3, 0.7};
  EXPECT_DOUBLE_EQ(network_weight_error(w, w), 0.0);
}

TEST(ErrorMetrics, NetworkWeightErrorBounds) {
  // Total variation distance lies in [0, 1].
  const std::vector<double> w = {1.0, 0.0};
  const std::vector<double> c = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(network_weight_error(w, c), 1.0);
}

TEST(ErrorMetrics, NetworkWeightErrorOfNormalizedRawValues) {
  const std::vector<double> w = {5.0, 5.0};
  const std::vector<double> c = {90.0, 10.0};
  EXPECT_DOUBLE_EQ(network_weight_error(normalize(w), normalize(c)), 0.4);
}

}  // namespace
}  // namespace flashflow::metrics
