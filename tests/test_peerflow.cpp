#include "peerflow/peerflow.h"

#include <gtest/gtest.h>

#include "net/units.h"

namespace flashflow::peerflow {
namespace {

std::vector<PeerFlowRelay> make_network(int n, int trusted, int malicious,
                                        std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<PeerFlowRelay> relays;
  for (int i = 0; i < n; ++i) {
    PeerFlowRelay r;
    r.fingerprint = "r";
    r.fingerprint += std::to_string(i);
    r.true_capacity_bits = rng.uniform(net::mbit(20), net::mbit(200));
    r.utilization = rng.uniform(0.3, 0.7);
    r.trusted = i < trusted;
    r.malicious = i >= n - malicious;
    relays.push_back(std::move(r));
  }
  return relays;
}

TEST(PeerFlow, HonestTrafficSymmetricAndPositive) {
  const auto relays = make_network(20, 4, 0, 1);
  sim::Rng rng(2);
  const auto traffic = honest_traffic(relays, 3600.0, rng);
  ASSERT_EQ(traffic.n, relays.size());
  for (std::size_t i = 0; i < traffic.n; ++i) {
    EXPECT_DOUBLE_EQ(traffic.at(i, i), 0.0);
    for (std::size_t j = 0; j < traffic.n; ++j)
      if (i != j) {
        EXPECT_GT(traffic.at(i, j), 0.0);
      }
  }
}

TEST(PeerFlow, HonestWeightsTrackUtilizedCapacity) {
  auto relays = make_network(30, 6, 0, 3);
  // Make one relay dramatically larger.
  relays[10].true_capacity_bits = net::mbit(800);
  relays[10].utilization = 0.6;
  sim::Rng rng(4);
  const auto traffic = honest_traffic(relays, 3600.0, rng);
  const auto weights = compute_weights(traffic, relays, {});
  double max_w = 0;
  std::size_t max_i = 0;
  for (std::size_t i = 0; i < weights.size(); ++i)
    if (weights[i] > max_w) {
      max_w = weights[i];
      max_i = i;
    }
  EXPECT_EQ(max_i, 10u);
}

TEST(PeerFlow, InflationAdvantageNearTwoOverTau) {
  // The malicious strategy yields at most ~2/tau (§8, Table 2: 10x at
  // tau=0.2).
  const auto relays = make_network(50, 10, 2, 5);
  PeerFlowParams params;  // tau = 0.2
  const double advantage = inflation_advantage(relays, params, 6);
  EXPECT_GT(advantage, 3.0);
  EXPECT_LT(advantage, 2.0 / params.trusted_weight_fraction * 1.3);
}

TEST(PeerFlow, SmallerTauMoreAdvantage) {
  // A smaller trusted set (tau) means honest relays get less of their
  // traffic witnessed, so redirecting everything at the trusted relays
  // pays off more (the 2/tau bound).
  const auto many_trusted = make_network(50, 20, 2, 7);
  PeerFlowParams tight;
  tight.trusted_weight_fraction = 0.4;
  const auto few_trusted = make_network(50, 5, 2, 7);
  PeerFlowParams loose;
  loose.trusted_weight_fraction = 0.1;
  EXPECT_GT(inflation_advantage(few_trusted, loose, 8),
            inflation_advantage(many_trusted, tight, 8));
}

}  // namespace
}  // namespace flashflow::peerflow
