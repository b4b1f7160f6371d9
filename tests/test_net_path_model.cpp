// The PathModel seam (net/path_model.h).
//
// The contract under test is equivalence: a TieredPathModel with jitter 0
// must be bit-identical to a DensePathModel materialized from the same
// tier table, and with jitter on, pair resolution must be a pure function
// of (seed, lo, hi) — symmetric, query-order independent, and identical
// across instances — because the golden determinism suite hashes bytes
// produced through this interface.
#include "net/path_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/sink.h"
#include "net/topology.h"
#include "net/units.h"
#include "scenario/experiment.h"

namespace flashflow::net {
namespace {

/// 3-tier params with a distinct RTT per tier pair:
///   (0,0)=10ms (0,1)=65ms (0,2)=90ms (1,1)=20ms (1,2)=150ms (2,2)=25ms
TieredPathParams three_tier_params() {
  TieredPathParams params;
  params.tiers = 3;
  params.tier_rtt_s = {0.010, 0.065, 0.090, 0.020, 0.150, 0.025};
  params.loss = 2.0e-6;
  params.loaded_loss = 7.0e-5;
  return params;
}

/// A topology of `hosts` unnamed-ish hosts on the given model, tiers
/// assigned round-robin (the model's default, made explicit).
Topology tiered_topology(int hosts, TieredPathParams params) {
  Topology topo;
  topo.use_path_model(std::make_unique<TieredPathModel>(std::move(params)));
  for (int i = 0; i < hosts; ++i) {
    Host h;
    h.name = std::to_string(i);
    topo.add_host(std::move(h));
  }
  return topo;
}

/// One path, through the bulk query the slot pipeline uses.
PathCharacteristics path(const Topology& topo, HostId a, HostId b) {
  PathCharacteristics out;
  topo.fill_paths(a, {&b, 1}, {&out, 1});
  return out;
}

TEST(PathModel, TieredMatchesDenseBuiltFromSameTable) {
  const TieredPathParams params = three_tier_params();
  const int kHosts = 9;  // three hosts per tier
  const Topology tiered = tiered_topology(kHosts, params);

  // Dense twin: the same tier table written out pair by pair.
  Topology dense;
  const auto table_rtt = [&](int ta, int tb) {
    if (ta > tb) std::swap(ta, tb);
    // Upper-triangle row-major: row ta starts after ta rows of
    // decreasing length.
    int index = 0;
    for (int row = 0; row < ta; ++row) index += params.tiers - row;
    return params.tier_rtt_s[index + (tb - ta)];
  };
  for (int i = 0; i < kHosts; ++i) {
    Host h;
    h.name = std::to_string(i);
    dense.add_host(std::move(h));
  }
  for (HostId a = 0; a < kHosts; ++a)
    for (HostId b = a + 1; b < kHosts; ++b)
      dense.set_path(a, b, table_rtt(a % 3, b % 3), params.loss,
                     params.loaded_loss);

  for (HostId a = 0; a < kHosts; ++a)
    for (HostId b = 0; b < kHosts; ++b) {
      if (a == b) continue;
      // EXPECT_EQ, not NEAR: the equivalence must be bit-exact.
      EXPECT_EQ(tiered.rtt(a, b), dense.rtt(a, b)) << a << "," << b;
      EXPECT_EQ(tiered.loss(a, b), dense.loss(a, b));
      EXPECT_EQ(path(tiered, a, b).loaded_loss, path(dense, a, b).loaded_loss);
    }
}

TEST(PathModel, SelfPathsAreZeroInBothModels) {
  const Topology tiered = tiered_topology(3, three_tier_params());
  Topology dense;
  dense.add_host(Host{});
  const Topology* models[] = {&tiered, &dense};
  for (const Topology* t : models) {
    EXPECT_EQ(t->rtt(0, 0), 0.0);
    EXPECT_EQ(t->loss(0, 0), 0.0);
    EXPECT_EQ(path(*t, 0, 0).loaded_loss, 0.0);
  }
}

TEST(PathModel, EmptyTierTableMeansFlatFiftyMillisecondMesh) {
  // The synthetic flat-mesh default: an empty table is 0.05 s everywhere,
  // which is what makes a 1-tier tiered scenario reproduce the dense
  // synthetic mesh bit-exactly.
  TieredPathParams params;
  params.tiers = 4;
  const Topology topo = tiered_topology(6, params);
  for (HostId a = 0; a < 6; ++a)
    for (HostId b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topo.rtt(a, b), 0.05);
      EXPECT_EQ(topo.loss(a, b), 1.0e-6);
      EXPECT_EQ(path(topo, a, b).loaded_loss, 5.0e-5);
    }
}

TEST(PathModel, JitteredPairsAreDeterministicAndQueryOrderIndependent) {
  TieredPathParams params = three_tier_params();
  params.rtt_jitter = 0.3;
  params.seed = 0xFEEDFACEULL;
  const int kHosts = 12;
  const Topology forward = tiered_topology(kHosts, params);
  const Topology backward = tiered_topology(kHosts, params);

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
  // they stay positive.
  for (const double rtt : seen_forward) EXPECT_GT(rtt, 0.0);
}

TEST(PathModel, ZeroJitterReadsExactTableValues) {
  TieredPathParams params = three_tier_params();
  params.seed = 0x12345;  // seed must be irrelevant when jitter is off
  const Topology topo = tiered_topology(6, params);
  EXPECT_EQ(topo.rtt(0, 3), 0.010);  // tier 0 <-> 0
  EXPECT_EQ(topo.rtt(0, 1), 0.065);  // tier 0 <-> 1
  EXPECT_EQ(topo.rtt(1, 2), 0.150);  // tier 1 <-> 2
  EXPECT_EQ(topo.rtt(2, 5), 0.025);  // tier 2 <-> 2
}

TEST(PathModel, FillPathsMatchesScalarGetters) {
  TieredPathParams params = three_tier_params();
  params.rtt_jitter = 0.1;
  params.seed = 77;
  const Topology tiered = tiered_topology(8, params);

  Topology dense;
  for (int i = 0; i < 8; ++i) {
    Host h;
    h.name = std::to_string(i);
    dense.add_host(std::move(h));
  }
  for (HostId a = 0; a < 8; ++a)
    for (HostId b = a + 1; b < 8; ++b)
      dense.set_path(a, b, 0.001 * static_cast<double>(a + b), 1e-6, 5e-5);

  const Topology* models[] = {&tiered, &dense};
  for (const Topology* t : models) {
    const std::vector<HostId> to = {3, 1, 7, 0, 0, 5};
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
  TieredPathParams params = three_tier_params();
  Topology topo = tiered_topology(5, params);
  EXPECT_EQ(topo.rtt(1, 4), 0.020);  // 4 % 3: the round-robin default tier 1
  topo.set_host_tier(4, 2);
  EXPECT_EQ(topo.rtt(1, 4), 0.150);  // tier 1 <-> 2 now
  EXPECT_THROW(topo.set_host_tier(4, 3), std::invalid_argument);
  EXPECT_THROW(topo.set_host_tier(99, 0), std::out_of_range);
}

TEST(PathModel, MutatorsRejectTheWrongModel) {
  Topology tiered = tiered_topology(2, TieredPathParams{});
  EXPECT_THROW(tiered.set_path(0, 1, 0.05, 0.0), std::logic_error);
  Topology dense;
  dense.add_host(Host{});
  EXPECT_THROW(dense.set_host_tier(0, 0), std::logic_error);
}

TEST(PathModel, RejectsBadParams) {
  TieredPathParams params;
  params.tiers = 0;
  EXPECT_THROW(TieredPathModel{params}, std::invalid_argument);
  params = three_tier_params();
  params.tier_rtt_s.pop_back();  // 5 entries, triangle needs 6
  EXPECT_THROW(TieredPathModel{params}, std::invalid_argument);
  params = three_tier_params();
  params.tier_rtt_s[2] = -0.01;
  EXPECT_THROW(TieredPathModel{params}, std::invalid_argument);
  params = three_tier_params();
  params.loss = 1.0;
  EXPECT_THROW(TieredPathModel{params}, std::invalid_argument);
  params = three_tier_params();
  params.rtt_jitter = 1.0;
  EXPECT_THROW(TieredPathModel{params}, std::invalid_argument);
}

TEST(PathModel, ScenarioBytesAreIdenticalUnderDenseAndOneTierTiered) {
  // End-to-end over the campaign engine: the golden 40-relay synthetic
  // scenario must stream byte-identical CSV whichever model resolves the
  // flat mesh. This is the equivalence the golden-hash suite relies on
  // when large scenarios switch to 'topology.path_model: tiered'.
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.0;
  pop.lognormal_sigma = 1.2;
  pop.max_capacity_bits = 900e6;
  const auto run = [&](bool tiered) {
    scenario::ScenarioSpec spec{
        .name = "seam",
        .population = scenario::SyntheticPopulationSpec{pop, 40, 0.8},
        .team = {.capacity_bits = {mbit(800), mbit(800), mbit(800)}},
        .seed = 20210613};
    if (tiered)
      spec.topology.path_model = scenario::TopologySpec::PathModelKind::kTiered;
    scenario::Experiment experiment(spec);
    std::ostringstream out;
    campaign::CsvSink sink(out);
    experiment.run(&sink);
    return out.str();
  };
  const std::string dense_csv = run(false);
  EXPECT_FALSE(dense_csv.empty());
  EXPECT_EQ(dense_csv, run(true));
}

}  // namespace
}  // namespace flashflow::net
