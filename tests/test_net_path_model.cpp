// The path model (net/path_model.h).
//
// Pair resolution must read the tier table exactly when jitter is off,
// and with jitter on be a pure function of (seed, lo, hi) — symmetric,
// query-order independent, and identical across instances — because the
// golden determinism suite hashes bytes produced through it.
#include "net/path_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "net/units.h"
#include "scenario/scenario.h"

namespace flashflow::net {
namespace {

/// 3-tier table with a distinct RTT per tier pair:
///   (0,0)=10ms (0,1)=65ms (0,2)=90ms (1,1)=20ms (1,2)=150ms (2,2)=25ms
std::vector<PathCharacteristics> three_tier_table() {
  std::vector<PathCharacteristics> table;
  for (const double rtt : {0.010, 0.065, 0.090, 0.020, 0.150, 0.025})
    table.push_back({rtt, 2.0e-6, 7.0e-5});
  return table;
}

/// A topology of `hosts` hosts on the given model, tiers assigned
/// round-robin (the model's default).
Topology topology(int hosts, PathModel paths) {
  Topology topo(std::move(paths));
  for (int i = 0; i < hosts; ++i) {
    Host h;
    h.name = std::to_string(i);
    topo.add_host(std::move(h));
  }
  return topo;
}

Topology three_tier_topology(int hosts, double rtt_jitter = 0.0,
                             std::uint64_t seed = 0) {
  return topology(hosts, PathModel(3, three_tier_table(), rtt_jitter, seed));
}

/// One path, through the bulk query the slot pipeline uses.
PathCharacteristics path(const Topology& topo, HostId a, HostId b) {
  PathCharacteristics out;
  topo.fill_paths(a, {&b, 1}, {&out, 1});
  return out;
}

TEST(PathModel, SelfPathsAreZero) {
  // Same-tier pairs read the diagonal, a host's path to itself reads
  // nothing: co-located, on one tier or on many.
  const PathCharacteristics flat_path{0.05, 1e-6, 5e-5};
  const Topology one_tier = topology(3, PathModel(1, {&flat_path, 1}));
  const Topology three_tiers = three_tier_topology(3);
  const Topology table1 = make_table1_hosts();
  for (const Topology* t : {&one_tier, &three_tiers, &table1}) {
    EXPECT_EQ(t->rtt(0, 0), 0.0);
    EXPECT_EQ(t->loss(0, 0), 0.0);
    EXPECT_EQ(path(*t, 0, 0).loaded_loss, 0.0);
  }
  EXPECT_EQ(one_tier.rtt(0, 1), 0.05);
}

TEST(PathModel, EmptyTierTableMeansFlatFiftyMillisecondMesh) {
  // The synthetic default: one tier and no table is 0.05 s between any
  // two hosts, the flat mesh every synthetic golden hash was recorded on.
  analysis::PopulationParams pop;
  pop.max_capacity_bits = 900e6;
  const scenario::MaterializedScenario mat =
      scenario::materialize({.population = scenario::SyntheticPopulationSpec{
                                 .params = pop, .relays = 3},
                             .team = {.capacity_bits = {mbit(800), mbit(800),
                                                        mbit(800)}}});
  const Topology& topo = mat.topology;
  ASSERT_EQ(topo.host_count(), 6u);
  for (HostId a = 0; a < 6; ++a)
    for (HostId b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topo.rtt(a, b), 0.05);
      EXPECT_EQ(topo.loss(a, b), 1.0e-6);
      EXPECT_EQ(path(topo, a, b).loaded_loss, 5.0e-5);
    }
}

TEST(PathModel, JitteredPairsAreDeterministicAndQueryOrderIndependent) {
  const int kHosts = 12;
  const Topology forward = three_tier_topology(kHosts, 0.3, 0xFEEDFACEULL);
  const Topology backward = three_tier_topology(kHosts, 0.3, 0xFEEDFACEULL);

  // Query one instance low-to-high and the other high-to-low: on-demand
  // resolution must not depend on what was asked before.
  std::vector<double> seen_forward;
  for (HostId a = 0; a < kHosts; ++a)
    for (HostId b = a + 1; b < kHosts; ++b)
      seen_forward.push_back(forward.rtt(a, b));
  std::vector<double> seen_backward;
  for (int a = kHosts - 1; a >= 0; --a)
    for (int b = kHosts - 1; b > a; --b)
      seen_backward.push_back(
          backward.rtt(static_cast<HostId>(a), static_cast<HostId>(b)));
  std::reverse(seen_backward.begin(), seen_backward.end());
  EXPECT_EQ(seen_forward, seen_backward);

  // Symmetric, and actually jittered: same-tier pairs must not collapse
  // to one value.
  EXPECT_EQ(forward.rtt(2, 9), forward.rtt(9, 2));
  EXPECT_NE(forward.rtt(0, 3), forward.rtt(0, 6));  // both tier 0 <-> 0
  // Jittered RTTs scale the table value by 1 + 0.3*u, u in [-1, 1), so
  // they stay positive; jitter leaves the losses alone.
  for (const double rtt : seen_forward) EXPECT_GT(rtt, 0.0);
  EXPECT_EQ(forward.loss(0, 3), 2.0e-6);
  EXPECT_EQ(path(forward, 0, 3).loaded_loss, 7.0e-5);
}

TEST(PathModel, ZeroJitterReadsExactTableValues) {
  // The seed must be irrelevant when jitter is off.
  const Topology topo = three_tier_topology(6, 0.0, 0x12345);
  EXPECT_EQ(topo.rtt(0, 3), 0.010);  // tier 0 <-> 0
  EXPECT_EQ(topo.rtt(0, 1), 0.065);  // tier 0 <-> 1
  EXPECT_EQ(topo.rtt(1, 2), 0.150);  // tier 1 <-> 2
  EXPECT_EQ(topo.rtt(2, 5), 0.025);  // tier 2 <-> 2
  EXPECT_EQ(topo.loss(1, 2), 2.0e-6);
  EXPECT_EQ(path(topo, 1, 2).loaded_loss, 7.0e-5);
}

TEST(PathModel, FillPathsMatchesScalarGetters) {
  const Topology jittered = three_tier_topology(8, 0.1, 77);
  const Topology table1 = make_table1_hosts();
  for (const Topology* t : {&jittered, &table1}) {
    const std::vector<HostId> to = {3, 1, 4, 0, 0, 2};
    std::vector<PathCharacteristics> out(to.size());
    t->fill_paths(0, to, out);
    for (std::size_t i = 0; i < to.size(); ++i) {
      EXPECT_EQ(out[i].rtt_s, t->rtt(0, to[i]));
      EXPECT_EQ(out[i].loss, t->loss(0, to[i]));
      EXPECT_EQ(out[i].loaded_loss, path(*t, 0, to[i]).loaded_loss);
    }
  }
}

TEST(PathModel, HostTierOverridesAndDefaults) {
  Topology topo = three_tier_topology(5);
  EXPECT_EQ(topo.rtt(1, 4), 0.020);  // 4 % 3: the round-robin default tier 1
  topo.set_host_tier(4, 2);
  EXPECT_EQ(topo.rtt(1, 4), 0.150);  // tier 1 <-> 2 now
  EXPECT_THROW(topo.set_host_tier(4, 3), std::invalid_argument);
  EXPECT_THROW(topo.set_host_tier(99, 0), std::out_of_range);
}

TEST(PathModel, RejectsBadParams) {
  const std::vector<PathCharacteristics> good = three_tier_table();
  EXPECT_NO_THROW(PathModel(3, good));
  EXPECT_THROW(PathModel(0, {}), std::invalid_argument);
  // No empty-table default: every tier pair needs its entry.
  EXPECT_THROW(PathModel(1, {}), std::invalid_argument);
  EXPECT_THROW(PathModel(3, {good.data(), 5}), std::invalid_argument);
  const auto with = [&good](auto change) {
    std::vector<PathCharacteristics> table = good;
    change(table[2]);
    return table;
  };
  EXPECT_THROW(PathModel(3, with([](auto& p) { p.rtt_s = -0.01; })),
               std::invalid_argument);
  EXPECT_THROW(PathModel(3, with([](auto& p) { p.loss = 1.0; })),
               std::invalid_argument);
  EXPECT_THROW(PathModel(3, with([](auto& p) { p.loaded_loss = -1e-6; })),
               std::invalid_argument);
  EXPECT_THROW(PathModel(3, good, 1.0), std::invalid_argument);
  EXPECT_THROW(PathModel(3, good, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::net
