#include "eigenspeed/eigenspeed.h"

#include <gtest/gtest.h>

#include <numeric>

#include "net/units.h"

namespace flashflow::eigenspeed {
namespace {

std::vector<double> make_caps(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> caps;
  for (int i = 0; i < n; ++i)
    caps.push_back(rng.uniform(net::mbit(10), net::mbit(400)));
  return caps;
}

TEST(ObservationMatrix, BoundsChecked) {
  ObservationMatrix m(3);
  m.set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_THROW(m.at(3, 0), std::out_of_range);
  EXPECT_THROW(m.set(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(ObservationMatrix(0), std::invalid_argument);
}

TEST(EigenSpeed, HonestWeightsCorrelateWithCapacity) {
  const auto caps = make_caps(40, 1);
  sim::Rng rng(2);
  const auto obs = honest_observations(caps, 0.1, rng);
  std::vector<bool> trusted(caps.size(), false);
  for (int i = 0; i < 8; ++i) trusted[static_cast<std::size_t>(i)] = true;
  const auto w = compute_weights(obs, trusted, {});
  // Weights sum to 1 and the largest-capacity relay outranks the smallest.
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
  const auto max_cap =
      std::max_element(caps.begin(), caps.end()) - caps.begin();
  const auto min_cap =
      std::min_element(caps.begin(), caps.end()) - caps.begin();
  EXPECT_GT(w[static_cast<std::size_t>(max_cap)],
            w[static_cast<std::size_t>(min_cap)]);
}

TEST(EigenSpeed, RequiresTrustedRelays) {
  const auto caps = make_caps(10, 3);
  sim::Rng rng(4);
  const auto obs = honest_observations(caps, 0.1, rng);
  const std::vector<bool> none(caps.size(), false);
  EXPECT_THROW(compute_weights(obs, none, {}), std::invalid_argument);
}

TEST(EigenSpeed, CollusionInflatesWeights) {
  const auto caps = make_caps(50, 5);
  const std::vector<std::size_t> colluders = {45, 46, 47, 48, 49};
  const double advantage =
      collusion_advantage(caps, colluders, 100.0, 0.2, {}, 6);
  EXPECT_GT(advantage, 2.0);   // the attack pays off
  EXPECT_LT(advantage, 60.0);  // but row normalization bounds it
}

TEST(EigenSpeed, MoreInflationMoreAdvantage) {
  const auto caps = make_caps(50, 7);
  const std::vector<std::size_t> colluders = {0, 1};
  const double low = collusion_advantage(caps, colluders, 5.0, 0.2, {}, 8);
  const double high =
      collusion_advantage(caps, colluders, 200.0, 0.2, {}, 8);
  EXPECT_GT(high, low);
}

}  // namespace
}  // namespace flashflow::eigenspeed
