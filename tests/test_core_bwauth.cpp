#include "core/bwauth.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/attack.h"
#include "net/units.h"
#include "tor/cpu_model.h"

namespace flashflow::core {
namespace {

net::Topology topo() { return net::make_table1_hosts(); }

Team make_team(const net::Topology& t) {
  Team team(t, {t.find("US-NW"), t.find("US-E"), t.find("IN"),
                t.find("NL")});
  team.measure_measurers(99);
  return team;
}

RelayTarget make_target(const net::Topology& t, double limit_mbit,
                        double prev_mbit) {
  RelayTarget target;
  target.model.name = "relay";
  target.model.nic_up_bits = target.model.nic_down_bits = net::mbit(954);
  target.model.rate_limit_bits =
      limit_mbit > 0 ? net::mbit(limit_mbit) : 0.0;
  target.model.cpu = tor::CpuModel::us_sw();
  target.host = t.find("US-SW");
  target.previous_estimate_bits =
      prev_mbit > 0 ? net::mbit(prev_mbit) : 0.0;
  return target;
}

TEST(Team, MeshEstimatesApproachNics) {
  const auto t = topo();
  const Team team = make_team(t);
  ASSERT_EQ(team.measurers().size(), 4u);
  // Each measurer's estimate is bounded by (and close to) its NIC.
  for (const auto& m : team.measurers()) {
    EXPECT_LE(m.capacity_bits, t.host(m.host).nic_down_bits * 1.01);
    EXPECT_GE(m.capacity_bits, t.host(m.host).nic_down_bits * 0.55);
  }
  const std::vector<double> caps = team.capacities();
  EXPECT_GT(std::accumulate(caps.begin(), caps.end(), 0.0), net::gbit(3));
}

TEST(Team, MeshCapacitiesMatchRecordedBits) {
  // The §4.2 mesh over the four non-US-SW Table 1 hosts at seed 99,
  // recorded from the event-driven FlowNet mesh that accrued 60 one-second
  // bins per flow; the single fair-share solve must give the same bits.
  const auto t = topo();
  const std::vector<double> want = {
      0x1.9526deea53c56p+29, 0x1.bdebc54b09b82p+29, 0x1.fe4de5f049fe8p+29,
      0x1.fe85f07790c2p+29};
  const std::vector<double> got = make_team(t).capacities();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "measurer " << i << ": " << std::hexfloat << got[i];
}

TEST(Team, SetCapacityOverridesTheEstimate) {
  const auto t = topo();
  Team team(t, {t.find("NL")});
  team.set_capacity(0, net::gbit(1));
  EXPECT_EQ(team.capacities(), std::vector<double>{net::gbit(1)});
}

TEST(Team, RejectsEmptyAndBadIndex) {
  const auto t = topo();
  EXPECT_THROW(Team(t, {}), std::invalid_argument);
  Team team(t, {0});
  EXPECT_THROW(team.set_capacity(5, 1.0), std::out_of_range);
}

TEST(BWAuth, AcceptsAccurateGuessInOneRound) {
  const auto t = topo();
  BWAuth auth(t, Params{}, make_team(t), net::mbit(51), 7);
  // Previous estimate equals the true capacity: one slot suffices (§4.2).
  const auto target = make_target(t, 250, 239);
  const auto result = auth.measure_relay(target);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_TRUE(result.accepted);
  EXPECT_NEAR(net::to_mbit(result.estimate_bits), 239, 40);
}

TEST(BWAuth, DoublesGuessForUnderestimatedRelay) {
  const auto t = topo();
  BWAuth auth(t, Params{}, make_team(t), net::mbit(51), 8);
  // True capacity 500 Mbit/s but the old estimate says 30: FlashFlow must
  // escalate z0 (at least doubling each round) until acceptance.
  const auto target = make_target(t, 500, 30);
  const auto result = auth.measure_relay(target);
  EXPECT_GE(result.rounds, 2);
  EXPECT_TRUE(result.accepted);
  EXPECT_NEAR(net::to_mbit(result.estimate_bits), 494, 80);
}

TEST(BWAuth, NewRelayUsesPrior) {
  const auto t = topo();
  BWAuth auth(t, Params{}, make_team(t), net::mbit(51), 9);
  const auto target = make_target(t, 40, /*prev=*/0);  // new relay
  const auto result = auth.measure_relay(target);
  EXPECT_TRUE(result.accepted);
  // 40 Mbit/s < 51 Mbit/s prior: a single round is expected.
  EXPECT_EQ(result.rounds, 1);
}

TEST(BWAuth, VerificationFailureAborts) {
  const auto t = topo();
  BWAuth auth(t, Params{}, make_team(t), net::mbit(51), 10);
  auto target = make_target(t, 250, 239);
  target.behavior = TargetBehavior::kForgeEchoes;
  const auto result = auth.measure_relay(target);
  EXPECT_TRUE(result.verification_failed);
  EXPECT_DOUBLE_EQ(result.estimate_bits, 0.0);
}

TEST(BWAuth, NetworkFileCoversAllRelays) {
  const auto t = topo();
  BWAuth auth(t, Params{}, make_team(t), net::mbit(51), 11);
  std::vector<RelayTarget> targets;
  for (const double cap : {50.0, 100.0, 250.0}) {
    auto target = make_target(t, cap, cap);
    target.model.name = "relay-" + std::to_string(static_cast<int>(cap));
    targets.push_back(std::move(target));
  }
  const auto file = auth.measure_network(targets);
  ASSERT_EQ(file.size(), 3u);
  for (std::size_t i = 0; i < file.size(); ++i) {
    EXPECT_EQ(file[i].fingerprint, targets[i].model.name);
    EXPECT_GT(file[i].capacity_bits, 0.0);
    EXPECT_DOUBLE_EQ(file[i].weight, file[i].capacity_bits);
  }
}

TEST(Attack, PartTimeFailureProbabilityMath) {
  // q < 1/2 fails with probability > 0.5 (§5).
  EXPECT_GT(part_time_failure_probability(3, 0.4), 0.5);
  EXPECT_GT(part_time_failure_probability(5, 0.49), 0.5);
  // Full-time provisioning never fails.
  EXPECT_NEAR(part_time_failure_probability(5, 1.0), 0.0, 1e-12);
  // Never provisioning always fails.
  EXPECT_NEAR(part_time_failure_probability(5, 0.0), 1.0, 1e-12);
  EXPECT_THROW(part_time_failure_probability(0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(part_time_failure_probability(3, 1.5),
               std::invalid_argument);
}

TEST(Attack, MonteCarloMatchesAnalytic) {
  const double analytic = part_time_failure_probability(5, 0.3);
  const double empirical = simulate_part_time_attack(5, 0.3, 20000, 3);
  EXPECT_NEAR(empirical, analytic, 0.02);
}

TEST(Attack, BackgroundLieBoundedBy133) {
  const auto t = topo();
  Params p;
  Team team(t, {t.find("NL")});
  team.set_capacity(0, net::gbit(1.5));
  RelayTarget target = make_target(t, 250, 239);
  target.model.background_demand_bits = net::mbit(200);
  const auto result = background_lie_advantage(t, p, target, team, 13);
  EXPECT_GT(result.advantage, 1.1);
  EXPECT_LE(result.advantage, p.max_inflation() + 0.03);
}

TEST(Attack, SybilQueueDelayGrowsWithFlood) {
  Params p;
  const double spare = net::gbit(1);
  const int d0 = sybil_queue_delay_slots(0, net::mbit(51), net::mbit(51),
                                         spare, p);
  const int d100 = sybil_queue_delay_slots(100, net::mbit(51),
                                           net::mbit(51), spare, p);
  EXPECT_EQ(d0, 0);
  EXPECT_GT(d100, d0);
  // Benign relays are still measured eventually (§5): bounded delay.
  EXPECT_LT(d100, 100);
}

}  // namespace
}  // namespace flashflow::core
