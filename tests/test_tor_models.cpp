#include <gtest/gtest.h>

#include "net/units.h"
#include "tor/cpu_model.h"
#include "tor/observed_bandwidth.h"
#include "tor/relay.h"
#include "tor/scheduler.h"

namespace flashflow::tor {
namespace {

TEST(ObservedBandwidth, MaxOverWindows) {
  ObservedBandwidth obs(2, 10);
  obs.record(10.0);
  EXPECT_DOUBLE_EQ(obs.observed_bits(), 0.0);  // no full window yet
  obs.record(20.0);
  EXPECT_DOUBLE_EQ(obs.observed_bits(), 15.0);
  obs.record(30.0);  // window {20,30} = 25
  EXPECT_DOUBLE_EQ(obs.observed_bits(), 25.0);
  for (int i = 0; i < 20; ++i) obs.record(1.0);
  EXPECT_DOUBLE_EQ(obs.observed_bits(), 1.0);  // history expired the peak
}

TEST(ObservedBandwidth, AdvertisedIsMinWithRateLimit) {
  EXPECT_DOUBLE_EQ(advertised_bandwidth(100.0, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(advertised_bandwidth(100.0, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(advertised_bandwidth(100.0, 0.0), 100.0);  // unlimited
}

TEST(CpuModel, PaperCalibration) {
  // Appendix C: 1.248 Gbit/s peak at 20 sockets on lab hardware.
  EXPECT_NEAR(net::to_mbit(CpuModel::lab().capacity(20)), 1248, 5);
  // §6.1: 890 Mbit/s ground truth on US-SW with 160 measurement sockets.
  EXPECT_NEAR(net::to_mbit(CpuModel::us_sw().capacity(160)), 890, 5);
}

TEST(CpuModel, MonotoneDecreasingInSockets) {
  const CpuModel cpu = CpuModel::lab();
  double prev = cpu.capacity(0);
  for (int n = 1; n <= 300; n += 10) {
    EXPECT_LT(cpu.capacity(n), prev);
    prev = cpu.capacity(n);
  }
  EXPECT_THROW(cpu.capacity(-1), std::invalid_argument);
}

TEST(Scheduler, KistCapsScaleWithSockets) {
  SchedulerModel s;
  EXPECT_DOUBLE_EQ(s.normal_aggregate_cap(1), s.kist_per_socket_cap_bits);
  EXPECT_DOUBLE_EQ(s.normal_aggregate_cap(10),
                   10 * s.kist_per_socket_cap_bits);
  EXPECT_THROW(s.normal_aggregate_cap(-1), std::invalid_argument);
}

TEST(RelayModel, GroundTruthMatchesPaperAppendixE2) {
  // Paper: limits 10/250/500/750 Mbit/s -> ground truths 9.58/239/494/741.
  RelayModel r;
  r.nic_up_bits = r.nic_down_bits = net::mbit(954);
  r.cpu = CpuModel::us_sw();
  const auto gt = [&](double limit) {
    r.rate_limit_bits = net::mbit(limit);
    return net::to_mbit(r.ground_truth(160));
  };
  EXPECT_NEAR(gt(10), 9.58, 0.2);
  EXPECT_NEAR(gt(250), 239, 3);
  EXPECT_NEAR(gt(500), 494, 6);
  EXPECT_NEAR(gt(750), 741, 4);
  r.rate_limit_bits = 0;
  EXPECT_NEAR(net::to_mbit(r.ground_truth(160)), 890, 5);
}

TEST(RelayModel, MeasurementCapacityComposesLimits) {
  RelayModel r;
  r.nic_up_bits = net::mbit(100);
  r.nic_down_bits = net::mbit(200);
  r.cpu.base_bits = net::mbit(500);
  EXPECT_DOUBLE_EQ(r.measurement_capacity(0), net::mbit(100));  // NIC bound
  r.rate_limit_bits = net::mbit(50);
  EXPECT_DOUBLE_EQ(r.measurement_capacity(0), net::mbit(50));
}

TEST(RelayModel, NormalCapacityKistBound) {
  RelayModel r;
  r.cpu = CpuModel::lab();
  // One socket under the normal scheduler: KIST per-socket cap binds.
  EXPECT_DOUBLE_EQ(r.normal_capacity(1), r.sched.kist_per_socket_cap_bits);
  // Twenty sockets: CPU binds (Fig 11 peak).
  EXPECT_NEAR(net::to_mbit(r.normal_capacity(20)), 1248, 5);
}

TEST(RelayNoise, FactorsBoundedAndVarying) {
  RelayNoise noise({}, sim::Rng(9));
  double lo = 10, hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const double f = noise.next_factor();
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.04);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_LT(lo, hi);  // the process actually varies
}

TEST(RelayNoise, FillFactorsMatchesSequentialCalls) {
  // The batched slot-setup path must reproduce the call-at-a-time series
  // exactly — same draws in the same order — and leave the process in the
  // same state (a reused workspace alternates batch sizes across slots).
  RelayNoise sequential({}, sim::Rng(42));
  RelayNoise batched({}, sim::Rng(42));
  for (const std::size_t count : {std::size_t{30}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64}}) {
    std::vector<double> expected(count);
    for (double& f : expected) f = sequential.next_factor();
    std::vector<double> filled(count);
    batched.fill_factors(filled);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(filled[i], expected[i]) << "count=" << count << " i=" << i;
  }
}

}  // namespace
}  // namespace flashflow::tor
