#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "metrics/stats.h"
#include "net/units.h"
#include "shadowsim/experiment.h"
#include "shadowsim/shadow_net.h"

namespace flashflow::shadowsim {
namespace {

ShadowNetParams small_net() {
  ShadowNetParams p;
  p.relays = 60;  // keep unit tests fast; benches run the full 328
  return p;
}

TEST(ShadowNet, BuildsRequestedRelays) {
  const auto net = make_shadow_net(small_net(), 1);
  ASSERT_EQ(net.relays.size(), 60u);
  for (const auto& r : net.relays) {
    EXPECT_GT(r.capacity_bits, 0.0);
    EXPECT_LE(r.capacity_bits, 1.0e9);
    EXPECT_LE(r.advertised_bits, r.capacity_bits);
    EXPECT_GT(r.contention, 0.0);
    EXPECT_LE(r.contention, 1.0);
  }
  EXPECT_GT(net.total_capacity_bits, 0.0);
}

TEST(ShadowNet, RegionRttSymmetric) {
  for (int a = 0; a < kRegionCount; ++a)
    for (int b = 0; b < kRegionCount; ++b)
      EXPECT_DOUBLE_EQ(region_rtt(static_cast<Region>(a),
                                  static_cast<Region>(b)),
                       region_rtt(static_cast<Region>(b),
                                  static_cast<Region>(a)));
}

TEST(ShadowNet, TopologyHasMeasurersAndRelays) {
  const auto net = make_shadow_net(small_net(), 2);
  const auto topo = shadow_topology(net);
  EXPECT_EQ(topo.host_count(), 3u + 60u);
  EXPECT_DOUBLE_EQ(topo.host(0).nic_up_bits, net::gbit(1));
  // Relay host NICs comfortably exceed relay capacity.
  EXPECT_GE(topo.host(3).nic_up_bits, net.relays[0].capacity_bits);
}

TEST(MeasurementComparison, FlashFlowBeatsTorFlow) {
  const auto net = make_shadow_net(small_net(), 3);
  const auto cmp = run_measurement_comparison(net, 4);
  ASSERT_EQ(cmp.flashflow_file.size(), net.relays.size());
  ASSERT_EQ(cmp.torflow_file.size(), net.relays.size());
  // Fig 8b's headline: FlashFlow's network weight error is far below
  // TorFlow's.
  EXPECT_LT(cmp.ff_network_weight_error, cmp.tf_network_weight_error);
  EXPECT_LT(cmp.ff_network_weight_error, 0.15);
  EXPECT_GT(cmp.tf_network_weight_error, 0.15);
  // Capacity error is moderate (Fig 8a: median 16%).
  const double median_err = metrics::median(
      metrics::as_span(cmp.ff_capacity_error));
  EXPECT_LT(median_err, 0.35);
  EXPECT_GT(cmp.ff_network_capacity_error, 0.0);
  EXPECT_LT(cmp.ff_network_capacity_error, 0.4);
}

TEST(Performance, ProducesTransfersAndThroughput) {
  const auto net = make_shadow_net(small_net(), 5);
  const auto cmp = run_measurement_comparison(net, 6);
  PerfConfig config;
  config.sim_seconds = 300;
  config.bench_clients = 10;
  const auto perf = run_performance(net, cmp.flashflow_file, config, 7);
  EXPECT_GT(perf.bench.records.size(), 20u);
  EXPECT_GE(perf.throughput_series_bits.size(), 290u);
  for (const double t : perf.throughput_series_bits) EXPECT_GT(t, 0.0);
}

TEST(Performance, RefusesWeightsForAnotherNetwork) {
  // run_performance reads relay i's weight at position i: a file with
  // another relay count or order belongs to another network.
  const auto net = make_shadow_net(small_net(), 5);
  const auto cmp = run_measurement_comparison(net, 6);
  PerfConfig config;
  config.sim_seconds = 60;
  config.bench_clients = 2;
  const tor::BandwidthFile& file = cmp.flashflow_file;
  const tor::BandwidthFile shorter(file.begin(), file.begin() + 10);
  EXPECT_THROW(run_performance(net, shorter, config, 7),
               std::invalid_argument);
  tor::BandwidthFile swapped = file;
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(run_performance(net, swapped, config, 7),
               std::invalid_argument);
  tor::BandwidthFile longer = file;
  longer.push_back(file.back());
  EXPECT_THROW(run_performance(net, longer, config, 7),
               std::invalid_argument);
  EXPECT_NO_THROW(run_performance(net, file, config, 7));
}

TEST(Performance, FlashFlowFewerTimeoutsThanTorFlow) {
  const auto net = make_shadow_net(small_net(), 8);
  const auto cmp = run_measurement_comparison(net, 9);
  PerfConfig config;
  config.sim_seconds = 400;
  config.bench_clients = 12;
  const auto ff = run_performance(net, cmp.flashflow_file, config, 10);
  const auto tf = run_performance(net, cmp.torflow_file, config, 10);
  EXPECT_LE(ff.bench.error_rate(), tf.bench.error_rate() + 0.01);
}

TEST(Performance, HigherLoadSlowerTransfers) {
  const auto net = make_shadow_net(small_net(), 11);
  const auto cmp = run_measurement_comparison(net, 12);
  PerfConfig base;
  base.sim_seconds = 300;
  base.bench_clients = 10;
  PerfConfig loaded = base;
  loaded.load_scale = 1.5;
  const auto fast = run_performance(net, cmp.flashflow_file, base, 13);
  const auto slow = run_performance(net, cmp.flashflow_file, loaded, 13);
  const auto fast_ttlb =
      fast.bench.ttlb_for(trafficgen::TransferSize::k1MiB);
  const auto slow_ttlb =
      slow.bench.ttlb_for(trafficgen::TransferSize::k1MiB);
  ASSERT_FALSE(fast_ttlb.empty());
  ASSERT_FALSE(slow_ttlb.empty());
  EXPECT_LE(metrics::median(metrics::as_span(fast_ttlb)),
            metrics::median(metrics::as_span(slow_ttlb)) * 1.2);
}

}  // namespace
}  // namespace flashflow::shadowsim
