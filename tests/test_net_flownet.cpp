#include "net/flownet.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/units.h"
#include "sim/simulator.h"

namespace flashflow::net {
namespace {

struct FlowNetTest : ::testing::Test {
  sim::Simulator simu;
  FlowNet netw{simu};

  /// A flow over `resources`; unbounded unless `volume_bytes` >= 0, in
  /// which case its completion time lands in `*done_at`.
  FlowId flow(std::vector<ResourceId> resources, double weight = 1.0,
              double volume_bytes = -1.0, sim::SimTime* done_at = nullptr) {
    FlowNet::FlowSpec spec;
    spec.resources = std::move(resources);
    spec.weight = weight;
    spec.volume_bytes = volume_bytes;
    if (done_at) spec.on_complete = [this, done_at](FlowId) {
      *done_at = simu.now();
    };
    return netw.add_flow(std::move(spec));
  }

  /// An unconstrained resource: put on one flow, its usage reads that
  /// flow's rate.
  ResourceId probe() { return netw.add_resource(0.0); }

  /// The usage of `r` once the simulation has run to `seconds`.
  double usage_at(ResourceId r, double seconds) {
    simu.run_until(sim::from_seconds(seconds));
    return netw.resource_usage(r);
  }
};

TEST_F(FlowNetTest, SingleFlowUsesCapacity) {
  const ResourceId r = netw.add_resource(mbit(100));
  flow({r});
  // 100 Mbit/s for 10 s = 125 MB: a flow of that volume, alone on a link
  // of the same capacity, drains at 10 s.
  const ResourceId link = netw.add_resource(mbit(100));
  sim::SimTime done_at = -1;
  flow({link}, 1.0, 125e6, &done_at);
  EXPECT_NEAR(netw.resource_usage(r), mbit(100), 1.0);
  EXPECT_NEAR(usage_at(r, 10.0), mbit(100), 1.0);
  simu.run_until(30 * sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(done_at), 10.0, 1e-6);
}

TEST_F(FlowNetTest, TwoFlowsShareFairly) {
  const ResourceId r = netw.add_resource(mbit(100));
  const ResourceId pa = probe(), pb = probe();
  flow({r, pa});
  flow({r, pb});
  EXPECT_NEAR(usage_at(pa, 1.0), mbit(50), 1.0);
  EXPECT_NEAR(netw.resource_usage(pb), mbit(50), 1.0);
  EXPECT_NEAR(netw.resource_usage(r), mbit(100), 1.0);
}

TEST_F(FlowNetTest, RemovalRestoresRates) {
  const ResourceId r = netw.add_resource(mbit(100));
  const ResourceId pa = probe(), pb = probe();
  // 50 Mbit/s for 1 s, then 100 Mbit/s alone: 18.75 MB drain at 2 s.
  sim::SimTime done_at = -1;
  flow({r, pa}, 1.0, 18.75e6, &done_at);
  const FlowId fb = flow({r, pb});
  EXPECT_NEAR(usage_at(pa, 1.0), mbit(50), 1.0);
  netw.remove_flow(fb);
  EXPECT_NEAR(netw.resource_usage(pa), mbit(100), 1.0);
  EXPECT_DOUBLE_EQ(netw.resource_usage(pb), 0.0);
  simu.run_until(5 * sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 1e-6);
  // Removing a flow twice is a no-op.
  netw.remove_flow(fb);
  EXPECT_DOUBLE_EQ(netw.resource_usage(r), 0.0);
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
  const ResourceId p = probe();
  sim::SimTime done_at = -1;
  flow({r}, 1.0, 1e6, &done_at);  // 2 s at half rate
  flow({r, p});
  // First 2 s at 0.5 MB/s each; then the unbounded flow has all 1 MB/s.
  EXPECT_NEAR(usage_at(p, 1.0), mbit(4), 1.0);
  EXPECT_NEAR(usage_at(p, 3.0), mbit(8), 1.0);
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 1e-6);
  EXPECT_NEAR(usage_at(r, 10.0), mbit(8), 1.0);
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

TEST_F(FlowNetTest, WeightedContention) {
  const ResourceId r = netw.add_resource(mbit(100));
  const ResourceId ph = probe(), pl = probe();
  flow({r, ph}, /*weight=*/4.0);
  flow({r, pl});
  EXPECT_NEAR(usage_at(ph, 1.0), mbit(80), 1.0);
  EXPECT_NEAR(netw.resource_usage(pl), mbit(20), 1.0);
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
  EXPECT_THROW(netw.resource_usage(99), std::out_of_range);
}

TEST_F(FlowNetTest, FiniteFlowDrainsItsVolume) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  const ResourceId p = probe();
  sim::SimTime done_at = -1;
  flow({r, p}, 1.0, 4e6, &done_at);
  // 1 MB in each of the first four seconds, and nothing once 4 MB are
  // through.
  EXPECT_NEAR(usage_at(p, 1.0), mbit(8), 1.0);
  EXPECT_NEAR(usage_at(p, 3.5), mbit(8), 1.0);
  EXPECT_DOUBLE_EQ(usage_at(p, 10.0), 0.0);
  EXPECT_NEAR(sim::to_seconds(done_at), 4.0, 1e-6);
}

}  // namespace
}  // namespace flashflow::net
