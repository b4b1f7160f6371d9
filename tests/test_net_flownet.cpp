#include "net/flownet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "net/units.h"

namespace flashflow::net {
namespace {

constexpr double kUncapped = std::numeric_limits<double>::infinity();
/// A volume no test runs long enough to drain (over a day at 100 Mbit/s).
constexpr double kOutlastsTest = 1e12;

struct FlowNetTest : ::testing::Test {
  FlowNet netw;
  std::vector<std::pair<FlowId, sim::SimTime*>> watched;
  std::vector<FlowId> finished;

  /// An uncapped flow over `resources`; when it drains, the time lands in
  /// `*done_at`.
  FlowId flow(std::vector<ResourceId> resources,
              double volume_bytes = kOutlastsTest,
              sim::SimTime* done_at = nullptr) {
    const FlowId id = netw.add_flow(std::move(resources), kUncapped,
                                    volume_bytes);
    if (done_at) watched.emplace_back(id, done_at);
    return id;
  }

  /// An unconstrained resource: put on one flow, its usage reads that
  /// flow's rate.
  ResourceId probe() { return netw.add_resource(0.0); }

  /// Advances the net to `t` one finish at a time, noting when each
  /// watched flow drains.
  void run_until(sim::SimTime t) {
    for (;;) {
      const sim::SimTime step = std::min(t, netw.next_completion());
      netw.advance_to(step, finished);
      for (const FlowId id : finished)
        for (const auto& [watched_id, done_at] : watched)
          if (watched_id == id) *done_at = step;
      if (step == t) return;
    }
  }

  /// The usage of `r` once the net has run to `seconds`.
  double usage_at(ResourceId r, double seconds) {
    run_until(sim::from_seconds(seconds));
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
  flow({link}, 125e6, &done_at);
  EXPECT_NEAR(netw.resource_usage(r), mbit(100), 1.0);
  EXPECT_NEAR(usage_at(r, 10.0), mbit(100), 1.0);
  run_until(30 * sim::kSecond);
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
  flow({r, pa}, 18.75e6, &done_at);
  const FlowId fb = flow({r, pb});
  EXPECT_NEAR(usage_at(pa, 1.0), mbit(50), 1.0);
  netw.remove_flow(fb);
  EXPECT_NEAR(netw.resource_usage(pa), mbit(100), 1.0);
  EXPECT_DOUBLE_EQ(netw.resource_usage(pb), 0.0);
  run_until(5 * sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 1e-6);
  // Removing a flow twice is a no-op.
  netw.remove_flow(fb);
  EXPECT_DOUBLE_EQ(netw.resource_usage(r), 0.0);
}

TEST_F(FlowNetTest, VolumeCompletesAtExactTime) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  sim::SimTime completed_at = -1;
  flow({r}, 5e6, &completed_at);  // 5 seconds
  run_until(10 * sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(completed_at), 5.0, 0.001);
}

TEST_F(FlowNetTest, CompletionFreesCapacity) {
  const ResourceId r = netw.add_resource(mbit(8));
  const ResourceId p = probe();
  sim::SimTime done_at = -1;
  flow({r}, 1e6, &done_at);  // 2 s at half rate
  flow({r, p});
  // First 2 s at 0.5 MB/s each; then the long flow has all 1 MB/s.
  EXPECT_NEAR(usage_at(p, 1.0), mbit(4), 1.0);
  EXPECT_NEAR(usage_at(p, 3.0), mbit(8), 1.0);
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 1e-6);
  EXPECT_NEAR(usage_at(r, 10.0), mbit(8), 1.0);
}

TEST_F(FlowNetTest, AdvanceStepsThroughEachFinish) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  // Both at 0.5 MB/s until the first drains at 2 s; the second then has
  // 2 MB left at 1 MB/s and drains at 4 s. One advance past both sees
  // both, in start order.
  const FlowId a = flow({r}, 1e6);
  const FlowId b = flow({r}, 3e6);
  EXPECT_EQ(netw.next_completion(), 2 * sim::kSecond);
  netw.advance_to(10 * sim::kSecond, finished);
  EXPECT_EQ(finished, (std::vector<FlowId>{a, b}));
  EXPECT_EQ(netw.next_completion(), std::numeric_limits<sim::SimTime>::max());
  // An advance to the past changes nothing.
  netw.advance_to(sim::kSecond, finished);
  EXPECT_TRUE(finished.empty());
}

TEST_F(FlowNetTest, ResourceUsageSumsRates) {
  const ResourceId r = netw.add_resource(mbit(100));
  flow({r});
  flow({r});
  EXPECT_NEAR(netw.resource_usage(r), mbit(100), 1.0);
}

TEST_F(FlowNetTest, FlowCapRespected) {
  const ResourceId r = netw.add_resource(mbit(100));
  netw.add_flow({r}, mbit(30), kOutlastsTest);
  EXPECT_DOUBLE_EQ(netw.resource_usage(r), mbit(30));
}

TEST_F(FlowNetTest, RejectsBadSpecs) {
  EXPECT_THROW(netw.add_flow({99}, kUncapped, 1.0), std::out_of_range);
  // A negative volume once meant "unbounded"; every flow now drains.
  EXPECT_THROW(netw.add_flow({}, kUncapped, -1.0), std::invalid_argument);
  EXPECT_THROW(netw.resource_usage(99), std::out_of_range);
}

TEST_F(FlowNetTest, FiniteFlowDrainsItsVolume) {
  const ResourceId r = netw.add_resource(mbit(8));  // 1 MB/s
  const ResourceId p = probe();
  sim::SimTime done_at = -1;
  flow({r, p}, 4e6, &done_at);
  // 1 MB in each of the first four seconds, and nothing once 4 MB are
  // through.
  EXPECT_NEAR(usage_at(p, 1.0), mbit(8), 1.0);
  EXPECT_NEAR(usage_at(p, 3.5), mbit(8), 1.0);
  EXPECT_DOUBLE_EQ(usage_at(p, 10.0), 0.0);
  EXPECT_NEAR(sim::to_seconds(done_at), 4.0, 1e-6);
}

}  // namespace
}  // namespace flashflow::net
