#include "net/flownet.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/units.h"
#include "sim/simulator.h"

namespace flashflow::net {
namespace {

struct FlowNetTest : ::testing::Test {
  sim::Simulator simu;
  FlowNet netw{simu};

  /// An unbounded flow over `resources` that records its per-second series.
  FlowId recorded_flow(std::vector<ResourceId> resources,
                       double weight = 1.0) {
    FlowNet::FlowSpec spec;
    spec.resources = std::move(resources);
    spec.weight = weight;
    spec.record_per_second = true;
    return netw.add_flow(std::move(spec));
  }

  /// The flow's per-second rates (bits/s), accrued up to now.
  std::vector<double> rates(FlowId f) {
    netw.sync();
    return netw.series(f).bins_bits_per_second();
  }
};

TEST_F(FlowNetTest, SingleFlowUsesCapacity) {
  const ResourceId r = netw.add_resource(mbit(100));
  const FlowId f = recorded_flow({r});
  simu.run_until(10 * sim::kSecond);
  const std::vector<double> per_second = rates(f);
  ASSERT_EQ(per_second.size(), 10u);
  for (const double bits : per_second) EXPECT_NEAR(bits, mbit(100), 1.0);
  // 100 Mbit/s for 10 s = 125 MB.
  EXPECT_NEAR(bytes_from_bits(std::accumulate(per_second.begin(),
                                              per_second.end(), 0.0)),
              125e6, 1.0);
}

TEST_F(FlowNetTest, TwoFlowsShareFairly) {
  const ResourceId r = netw.add_resource(mbit(100));
  const FlowId fa = recorded_flow({r});
  const FlowId fb = recorded_flow({r});
  simu.run_until(1 * sim::kSecond);
  EXPECT_NEAR(rates(fa).at(0), mbit(50), 1.0);
  EXPECT_NEAR(rates(fb).at(0), mbit(50), 1.0);
}

TEST_F(FlowNetTest, RemovalRestoresRates) {
  const ResourceId r = netw.add_resource(mbit(100));
  const FlowId fa = recorded_flow({r});
  const FlowId fb = recorded_flow({r});
  simu.run_until(1 * sim::kSecond);
  netw.remove_flow(fb);
  simu.run_until(2 * sim::kSecond);
  const std::vector<double> a = rates(fa);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_NEAR(a[0], mbit(50), 1.0);
  EXPECT_NEAR(a[1], mbit(100), 1.0);
  // A retired flow's series stays queryable and stops growing.
  EXPECT_EQ(rates(fb).size(), 1u);
}

TEST_F(FlowNetTest, VolumeCompletesAtExactTime) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  FlowNet::FlowSpec spec;
  spec.resources = {r};
  spec.volume_bytes = 5e6;  // 5 seconds
  sim::SimTime completed_at = -1;
  spec.on_complete = [&](FlowId) { completed_at = simu.now(); };
  netw.add_flow(std::move(spec));
  simu.run_until(10 * sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(completed_at), 5.0, 0.001);
}

TEST_F(FlowNetTest, CompletionFreesCapacity) {
  const ResourceId r = netw.add_resource(mbit(8));
  FlowNet::FlowSpec finite;
  finite.resources = {r};
  finite.volume_bytes = 1e6;  // 2 s at half rate
  netw.add_flow(std::move(finite));
  const FlowId inf_flow = recorded_flow({r});
  simu.run_until(10 * sim::kSecond);
  // First 2 s at 0.5 MB/s, remaining 8 s at 1 MB/s = 9 MB.
  const std::vector<double> per_second = rates(inf_flow);
  EXPECT_NEAR(bytes_from_bits(std::accumulate(per_second.begin(),
                                              per_second.end(), 0.0)),
              9e6, 1e4);
}

TEST_F(FlowNetTest, CompletionCallbackCanAddFlows) {
  const ResourceId r = netw.add_resource(mbit(8));
  FlowNet::FlowSpec first;
  first.resources = {r};
  first.volume_bytes = 1e6;
  int completions = 0;
  sim::SimTime second_done_at = -1;
  first.on_complete = [&](FlowId) {
    ++completions;
    FlowNet::FlowSpec second;
    second.resources = {r};
    second.volume_bytes = 1e6;
    second.on_complete = [&](FlowId) {
      ++completions;
      second_done_at = simu.now();
    };
    netw.add_flow(std::move(second));
  };
  netw.add_flow(std::move(first));
  simu.run_until(10 * sim::kSecond);
  EXPECT_EQ(completions, 2);
  EXPECT_NEAR(sim::to_seconds(second_done_at), 2.0, 0.01);
}

TEST_F(FlowNetTest, PerSecondSeriesRecordsRate) {
  const ResourceId r = netw.add_resource(mbit(80));
  const FlowId f = recorded_flow({r});
  simu.run_until(5 * sim::kSecond);
  const auto bins = rates(f);
  ASSERT_GE(bins.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(bins[i], mbit(80), 1e3);
}

TEST_F(FlowNetTest, WeightedContention) {
  const ResourceId r = netw.add_resource(mbit(100));
  const FlowId fh = recorded_flow({r}, /*weight=*/4.0);
  const FlowId fl = recorded_flow({r});
  simu.run_until(1 * sim::kSecond);
  EXPECT_NEAR(rates(fh).at(0), mbit(80), 1.0);
  EXPECT_NEAR(rates(fl).at(0), mbit(20), 1.0);
}

TEST_F(FlowNetTest, ResourceUsageSumsRates) {
  const ResourceId r = netw.add_resource(mbit(100));
  FlowNet::FlowSpec a, b;
  a.resources = {r};
  b.resources = {r};
  netw.add_flow(std::move(a));
  netw.add_flow(std::move(b));
  EXPECT_NEAR(netw.resource_usage(r), mbit(100), 1.0);
}

TEST_F(FlowNetTest, FlowCapRespected) {
  const ResourceId r = netw.add_resource(mbit(100));
  FlowNet::FlowSpec spec;
  spec.resources = {r};
  spec.cap_bits = mbit(30);
  netw.add_flow(std::move(spec));
  EXPECT_DOUBLE_EQ(netw.resource_usage(r), mbit(30));
}

TEST_F(FlowNetTest, RejectsBadSpecs) {
  FlowNet::FlowSpec bad_resource;
  bad_resource.resources = {99};
  EXPECT_THROW(netw.add_flow(std::move(bad_resource)), std::out_of_range);
  FlowNet::FlowSpec bad_weight;
  bad_weight.weight = 0.0;
  EXPECT_THROW(netw.add_flow(std::move(bad_weight)),
               std::invalid_argument);
  EXPECT_THROW(netw.series(1234), std::invalid_argument);
}

TEST_F(FlowNetTest, FiniteFlowDrainsItsVolume) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  FlowNet::FlowSpec spec;
  spec.resources = {r};
  spec.volume_bytes = 4e6;
  spec.record_per_second = true;
  const FlowId f = netw.add_flow(std::move(spec));
  simu.run_until(10 * sim::kSecond);
  // 1 MB in each of the first four seconds, and 4 MB in all.
  const std::vector<double> per_second = rates(f);
  ASSERT_GE(per_second.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(per_second[i], mbit(8), 1e3);
  EXPECT_NEAR(bytes_from_bits(std::accumulate(per_second.begin(),
                                              per_second.end(), 0.0)),
              4e6, 1.0);
}

}  // namespace
}  // namespace flashflow::net
