#include "core/measurement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <numeric>

#include "core/verification.h"
#include "fault/fault.h"
#include "metrics/stats.h"
#include "net/units.h"
#include "tor/cell.h"
#include "tor/cpu_model.h"

namespace flashflow::core {
namespace {

net::Topology table1() { return net::make_table1_hosts(); }

tor::RelayModel us_sw_relay(double limit_mbit, double background_mbit = 0) {
  tor::RelayModel r;
  r.name = "target";
  r.nic_up_bits = r.nic_down_bits = net::mbit(954);
  r.rate_limit_bits = limit_mbit > 0 ? net::mbit(limit_mbit) : 0.0;
  r.cpu = tor::CpuModel::us_sw();
  r.background_demand_bits = net::mbit(background_mbit);
  return r;
}

/// The resolved measurer↔target path, as the slot pipeline reads it.
net::PathCharacteristics path(const net::Topology& topo, net::HostId from,
                              net::HostId to) {
  net::PathCharacteristics pc;
  topo.fill_paths(to, {&from, 1}, {&pc, 1});
  return pc;
}

/// What a slot no fault touched reports: the aggregation's full-coverage
/// case, with the estimate the plain median of z (0 once the spot check
/// caught a forger).
void expect_full_coverage(const SlotOutcome& out, const Params& params) {
  ASSERT_EQ(out.z_bits.size(), static_cast<std::size_t>(params.slot_seconds));
  EXPECT_EQ(out.quality, 1.0);
  EXPECT_EQ(out.usable_seconds, params.slot_seconds);
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.failure, SlotFailure::kNone);
  EXPECT_EQ(out.estimate_bits,
            out.verification_failed
                ? 0.0
                : metrics::median(metrics::as_span(out.z_bits)));
}

/// Appendix F: two 400 Mbit/s relays on US-SW measured by US-E + NL.
/// ConcurrentTarget borrows the relay model, so the models live in
/// `models`.
std::vector<SlotRunner::ConcurrentTarget> concurrent_pair(
    const net::Topology& topo, std::vector<tor::RelayModel>& models) {
  models.assign(2, us_sw_relay(400));
  models[0].name = "r0";
  models[1].name = "r1";
  std::vector<SlotRunner::ConcurrentTarget> targets(2);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i].relay = &models[i];
    targets[i].host = topo.find("US-SW");
    targets[i].team = {{topo.find("US-E"), net::mbit(600), 40},
                       {topo.find("NL"), net::mbit(600), 40}};
  }
  return targets;
}

/// Runs `targets` on `ws` and returns every target's recorded outcome.
std::vector<SlotOutcome> run_recorded(
    SlotRunner& runner,
    std::span<const SlotRunner::ConcurrentTarget> targets,
    SlotWorkspace& ws) {
  const std::size_t n = runner.run_concurrent(targets, ws).size();
  std::vector<SlotOutcome> outs;
  for (std::size_t t = 0; t < n; ++t) outs.push_back(runner.recorded(ws, t));
  return outs;
}

TEST(ClampBackground, Formula) {
  // y <= x * r / (1 - r)
  EXPECT_DOUBLE_EQ(clamp_background(100.0, 300.0, 0.25), 100.0);
  EXPECT_DOUBLE_EQ(clamp_background(200.0, 300.0, 0.25), 100.0);
  EXPECT_DOUBLE_EQ(clamp_background(1e9, 300.0, 0.25), 100.0);
  EXPECT_DOUBLE_EQ(clamp_background(50.0, 0.0, 0.25), 0.0);
  EXPECT_THROW(clamp_background(1.0, 1.0, 1.0), std::invalid_argument);
}

TEST(SlotRunner, MeasuresRateLimitedRelayAccurately) {
  const auto topo = table1();
  Params params;
  SlotRunner runner(topo, params, sim::Rng(1));
  const auto relay = us_sw_relay(250);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(250), 160};
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1});
  ASSERT_EQ(out.z_bits.size(), 30u);
  EXPECT_NEAR(out.estimate_bits, relay.ground_truth(160),
              relay.ground_truth(160) * 0.15);
  EXPECT_FALSE(out.verification_failed);
}

TEST(SlotRunner, EstimateIsMedianOfZ) {
  const auto topo = table1();
  Params params;
  SlotRunner runner(topo, params, sim::Rng(2));
  const auto relay = us_sw_relay(100);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(100), 160};
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1});
  auto z = out.z_bits;
  std::nth_element(z.begin(), z.begin() + z.size() / 2, z.end());
  // Median of 30 (even count averages the pair, but nth gives a bound).
  EXPECT_NEAR(out.estimate_bits, z[z.size() / 2],
              out.estimate_bits * 0.05);
}

TEST(SlotRunner, BurstSpikeInFirstSecond) {
  const auto topo = table1();
  Params params;
  SlotRunner runner(topo, params, sim::Rng(3));
  const auto relay = us_sw_relay(250);
  const MeasurerSlot m{topo.find("NL"), net::mbit(900), 160};
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1});
  // Fig 7: the first second spends the accumulated bucket
  // (tor::kBurstSeconds of refill on top of the rate).
  const double later_mean =
      std::accumulate(out.z_bits.begin() + 5, out.z_bits.end(), 0.0) /
      static_cast<double>(out.z_bits.size() - 5);
  EXPECT_GT(out.z_bits[0], later_mean * 1.1);
}

TEST(SlotRunner, BackgroundClampedToRatio) {
  const auto topo = table1();
  Params params;  // r = 0.25
  SlotRunner runner(topo, params, sim::Rng(4));
  const auto relay = us_sw_relay(250, /*background=*/50);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(250), 160};
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1});
  for (std::size_t j = 1; j < out.y_clamped_bits.size(); ++j) {
    EXPECT_LE(out.y_clamped_bits[j],
              out.x_bits[j] * 0.25 / 0.75 + 1.0);
  }
  // Honest relay's reported background equals what it forwarded (50 Mbit/s
  // fits within the allowance at 250 Mbit/s capacity).
  const double mid_y = out.y_reported_bits[15];
  EXPECT_NEAR(net::to_mbit(mid_y), 50, 10);
}

TEST(SlotRunner, LyingRelayGainsAtMostOneThird) {
  const auto topo = table1();
  Params params;
  // A relay with plenty of real background that it *withholds* while
  // reporting the maximum: §5 bounds the gain by 1/(1-r) = 1.33.
  const auto relay = us_sw_relay(250, /*background=*/200);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(250), 160};

  SlotRunner honest_runner(topo, params, sim::Rng(5));
  const auto honest =
      honest_runner.run(relay, topo.find("US-SW"), {&m, 1});
  SlotRunner lying_runner(topo, params, sim::Rng(5));
  const auto lying = lying_runner.run(relay, topo.find("US-SW"), {&m, 1},
                                      TargetBehavior::kLieAboutBackground);
  const double advantage = lying.estimate_bits / honest.estimate_bits;
  EXPECT_LE(advantage, 1.0 / (1.0 - params.ratio) + 0.02);
  EXPECT_GT(advantage, 1.05);  // the lie does help, up to the clamp
}

TEST(SlotRunner, ForgedEchoesDetected) {
  const auto topo = table1();
  Params params;  // p_check = 1e-5, ~megabytes of cells -> certain catch
  SlotRunner runner(topo, params, sim::Rng(6));
  const auto relay = us_sw_relay(250);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(250), 160};
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1},
                              TargetBehavior::kForgeEchoes);
  EXPECT_TRUE(out.verification_failed);
  EXPECT_DOUBLE_EQ(out.estimate_bits, 0.0);
}

TEST(SlotRunner, PerMeasurerReportsSumToTotal) {
  const auto topo = table1();
  Params params;
  SlotRunner runner(topo, params, sim::Rng(7));
  const auto relay = us_sw_relay(500);
  std::vector<MeasurerSlot> team = {
      {topo.find("US-E"), net::mbit(800), 80},
      {topo.find("NL"), net::mbit(800), 80},
  };
  const auto out = runner.run(relay, topo.find("US-SW"), team);
  ASSERT_EQ(out.x_by_measurer.size(), 2u);
  for (std::size_t j = 0; j < out.x_bits.size(); ++j) {
    const double sum =
        out.x_by_measurer[0][j] + out.x_by_measurer[1][j];
    EXPECT_NEAR(sum, out.x_bits[j], out.x_bits[j] * 1e-6 + 1.0);
  }
}

TEST(SlotRunner, ConcurrentTargetsShareMeasurers) {
  const auto topo = table1();
  Params params;
  SlotRunner runner(topo, params, sim::Rng(8));
  std::vector<tor::RelayModel> models;
  const auto targets = concurrent_pair(topo, models);
  SlotWorkspace ws;
  const auto outs = run_recorded(runner, targets, ws);
  ASSERT_EQ(outs.size(), 2u);
  for (const auto& out : outs) {
    const double gt = models[0].ground_truth(80);
    EXPECT_GT(out.estimate_bits, gt * 0.75);
    EXPECT_LT(out.estimate_bits, gt * 1.06);
    expect_full_coverage(out, params);
  }
}

TEST(OfferedRate, BoundedByAllocation) {
  const auto topo = table1();
  MeasurerSlot m{topo.find("NL"), net::mbit(100), 160};
  const auto& kernel = topo.host(m.host).kernel;
  const auto pc = path(topo, m.host, topo.find("US-SW"));
  EXPECT_LE(offered_rate(m, kernel, pc), net::mbit(100) + 1.0);
  m.sockets = 0;
  EXPECT_DOUBLE_EQ(offered_rate(m, kernel, pc), 0.0);
}

TEST(OfferedRate, SocketCountLimitsOfferedRate) {
  const auto topo = table1();
  // IN's loaded path: few sockets cannot deliver much (Appendix E.1).
  MeasurerSlot few{topo.find("IN"), net::gbit(1), 10};
  MeasurerSlot many{topo.find("IN"), net::gbit(1), 160};
  const auto& kernel = topo.host(few.host).kernel;
  const auto pc = path(topo, few.host, topo.find("US-SW"));
  EXPECT_LT(offered_rate(few, kernel, pc),
            offered_rate(many, kernel, pc) * 0.2);
}

TEST(SlotRunner, FaultFreeSlotIsFullCoverage) {
  const auto topo = table1();
  Params params;
  const auto relay = us_sw_relay(250, /*background=*/50);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(250), 160};
  // 3 s is below the default evidence floor (5 s): the floor is capped at
  // the slot length, so a whole short slot still counts.
  for (const int seconds : {30, 3}) {
    params.slot_seconds = seconds;
    for (const auto behavior :
         {TargetBehavior::kHonest, TargetBehavior::kLieAboutBackground,
          TargetBehavior::kForgeEchoes}) {
      SlotRunner runner(topo, params, sim::Rng(11));
      const auto out =
          runner.run(relay, topo.find("US-SW"), {&m, 1}, behavior);
      expect_full_coverage(out, params);
      if (behavior != TargetBehavior::kForgeEchoes) {
        EXPECT_FALSE(out.verification_failed);
      }
    }
  }
  // An undetected forger still gets the plain median.
  params.slot_seconds = 30;
  params.check_probability = 0.0;
  SlotRunner runner(topo, params, sim::Rng(11));
  const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1},
                              TargetBehavior::kForgeEchoes);
  EXPECT_FALSE(out.verification_failed);
  EXPECT_GT(out.estimate_bits, 0.0);
  expect_full_coverage(out, params);
}

TEST(SlotRunner, DisabledPlanMatchesNoPlan) {
  // A plan whose rates are all zero faults nothing, whatever its policy
  // knobs say: field for field, series included, its outcomes are those
  // of a runner that never armed one.
  const auto topo = table1();
  Params params;
  fault::FaultSpec spec;
  spec.max_retries = 0;
  spec.min_usable_seconds = 29;
  const fault::FaultPlan plan(spec, 20210613);
  ASSERT_FALSE(plan.enabled());
  std::vector<tor::RelayModel> models;
  auto targets = concurrent_pair(topo, models);
  targets[0].behavior = TargetBehavior::kForgeEchoes;
  targets[1].behavior = TargetBehavior::kLieAboutBackground;
  for (std::uint64_t seed = 13; seed < 16; ++seed) {
    SlotRunner plain(topo, params, sim::Rng(seed));
    SlotRunner armed(topo, params, sim::Rng(seed));
    armed.arm_faults(&plan, seed);
    SlotRunner disarmed(topo, params, sim::Rng(seed));
    disarmed.arm_faults(nullptr, seed);
    SlotWorkspace ws;
    const auto expected = run_recorded(plain, targets, ws);
    EXPECT_TRUE(run_recorded(armed, targets, ws) == expected) << seed;
    EXPECT_TRUE(run_recorded(disarmed, targets, ws) == expected) << seed;
  }
}

TEST(SlotRunner, DroppedReportsLeaveNoEvidence) {
  // Traffic still flows, but no report reaches the BWAuth: no second is
  // usable, so the slot fails instead of estimating from nothing.
  const auto topo = table1();
  Params params;
  fault::FaultSpec spec;
  spec.report_drop = 1.0;
  const fault::FaultPlan plan(spec, 20210613);
  std::vector<tor::RelayModel> models;
  const auto targets = concurrent_pair(topo, models);
  SlotRunner runner(topo, params, sim::Rng(16));
  runner.arm_faults(&plan, 0);
  SlotWorkspace ws;
  for (const auto& out : run_recorded(runner, targets, ws)) {
    EXPECT_TRUE(out.failed);
    EXPECT_EQ(out.failure, SlotFailure::kInsufficientEvidence);
    EXPECT_EQ(out.quality, 0.0);
    EXPECT_EQ(out.usable_seconds, 0);
    EXPECT_EQ(out.estimate_bits, 0.0);
    EXPECT_EQ(out.x_bits.size(), static_cast<std::size_t>(params.slot_seconds));
    EXPECT_GT(out.x_bits[10], 0.0);
  }
}

TEST(ClampBackgroundProperty, NeverExceedsRatioBound) {
  // For any reported y, the clamp admits at most x*r/(1-r) and never more
  // than the report itself.
  sim::Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    const double x = rng.uniform(0.0, net::gbit(2));
    const double y = rng.uniform(0.0, net::gbit(4));
    const double r = rng.uniform(0.0, 0.95);
    const double clamped = clamp_background(y, x, r);
    EXPECT_LE(clamped, x * r / (1.0 - r) + 1e-6);
    EXPECT_LE(clamped, y);
    EXPECT_GE(clamped, 0.0);
  }
}

TEST(ClampBackgroundProperty, MonotoneInBothArguments) {
  sim::Rng rng(102);
  for (int trial = 0; trial < 500; ++trial) {
    const double r = rng.uniform(0.0, 0.95);
    const double x = rng.uniform(0.0, net::gbit(1));
    const double y = rng.uniform(0.0, net::gbit(2));
    const double dx = rng.uniform(0.0, net::mbit(500));
    const double dy = rng.uniform(0.0, net::mbit(500));
    // Raising the report can only raise what the clamp admits...
    EXPECT_LE(clamp_background(y, x, r), clamp_background(y + dy, x, r));
    // ...and so can raising the measured traffic.
    EXPECT_LE(clamp_background(y, x, r), clamp_background(y, x + dx, r));
  }
}

TEST(SlotRunnerRegression, ForgeDetectionMatchesEvasionFormula) {
  // §5: a relay forging k cell echoes in a slot evades the sampled spot
  // check with probability (1-p)^k. Drive many independently seeded slots
  // against a small relay with p scaled down so detection is a coin flip,
  // and compare the empirical failure rate with 1-(1-p)^k predicted from
  // each slot's actual traffic volume.
  const auto topo = table1();
  Params params;
  params.check_probability = 3e-6;
  const auto relay = us_sw_relay(10);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(10), 160};

  const int kRuns = 300;
  int failures = 0;
  double predicted_sum = 0.0;
  for (int run = 0; run < kRuns; ++run) {
    SlotRunner runner(topo, params, sim::Rng(9000 + run));
    const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1},
                                TargetBehavior::kForgeEchoes);
    failures += out.verification_failed ? 1 : 0;
    const double total_bits =
        std::accumulate(out.x_bits.begin(), out.x_bits.end(), 0.0);
    const auto forged_cells = static_cast<std::uint64_t>(
        net::bytes_from_bits(total_bits) / tor::kCellSize);
    predicted_sum +=
        1.0 - evasion_probability(params.check_probability, forged_cells);
  }
  const double empirical = static_cast<double>(failures) / kRuns;
  const double predicted = predicted_sum / kRuns;
  // The prediction should sit in coin-flip territory, and the empirical
  // rate within ~4 binomial standard deviations of it.
  EXPECT_GT(predicted, 0.05);
  EXPECT_LT(predicted, 0.95);
  const double sigma =
      std::sqrt(predicted * (1.0 - predicted) / kRuns);
  EXPECT_NEAR(empirical, predicted, 4.0 * sigma + 0.01);
}

TEST(SlotRunnerRegression, LiarNeverTripsVerification) {
  // Lying about background is neutralized by the clamp, not the spot
  // check: across seeds the liar must never fail verification, and its
  // inflated estimate stays within the 1/(1-r) bound of the honest run.
  const auto topo = table1();
  Params params;
  const auto relay = us_sw_relay(100, /*background=*/80);
  const MeasurerSlot m{topo.find("NL"),
                       params.excess_factor() * net::mbit(100), 160};
  for (int run = 0; run < 25; ++run) {
    SlotRunner honest_runner(topo, params, sim::Rng(500 + run));
    const auto honest =
        honest_runner.run(relay, topo.find("US-SW"), {&m, 1});
    SlotRunner lying_runner(topo, params, sim::Rng(500 + run));
    const auto lying =
        lying_runner.run(relay, topo.find("US-SW"), {&m, 1},
                         TargetBehavior::kLieAboutBackground);
    EXPECT_FALSE(lying.verification_failed);
    EXPECT_GT(lying.estimate_bits, 0.0);
    EXPECT_LE(lying.estimate_bits / honest.estimate_bits,
              params.max_inflation() + 0.02);
  }
}

}  // namespace
}  // namespace flashflow::core
