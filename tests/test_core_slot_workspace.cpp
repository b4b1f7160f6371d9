// One SlotWorkspace reused across slots of changing shape: its recorded
// outcomes equal a fresh workspace's, a warm workspace allocates nothing,
// and the in-place percentile the aggregation uses matches a sort bit for
// bit. Setup builds a population with at most one allocation per relay.
//
// This binary replaces the global operator new/delete to count
// allocations (see SlotWorkspaceReuse.WarmWorkspaceAllocatesNothing and
// the MaterializeAllocations tests).
#include "core/measurement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "metrics/stats.h"
#include "net/topology.h"
#include "net/units.h"
#include "scenario/scenario.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "tor/cpu_model.h"

namespace {
// Every operator new in this binary counts here; the suite is
// single-threaded, and the tests read differences around the calls they
// measure.
std::size_t g_allocations = 0;
}  // namespace

// None of these is inlined: GCC would otherwise see malloc's pointer reach
// operator delete, or a new-expression's reach free(), and warn
// (-Wmismatched-new-delete), though the pairing is exact.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace flashflow::core {
namespace {

constexpr std::size_t kMaxTargets = 300;

/// Table 1's five vantage points plus `relay_hosts` relay hosts, each on
/// one of nine relay tiers whose path to measurer m has its own RTT.
net::Topology table1_topology(int relay_hosts) {
  const net::Topology table1 = net::make_table1_hosts();
  const std::size_t measurers = table1.host_count();
  constexpr int kRelayTiers = 9;
  const std::size_t tiers = measurers + kRelayTiers;
  std::vector<net::PathCharacteristics> table;
  for (std::size_t a = 0; a < tiers; ++a)
    for (std::size_t b = a; b < tiers; ++b) {
      net::PathCharacteristics path{};  // relay <-> relay: co-located
      if (b < measurers)  // Table 1's own pairs
        table1.fill_paths(a, {&b, 1}, {&path, 1});
      else if (a < measurers)
        path = {0.01 + 0.004 * static_cast<double>(b - measurers) +
                    0.02 * static_cast<double>(a),
                1e-5, 6e-5};
      table.push_back(path);
    }
  net::Topology topo(net::PathModel(static_cast<int>(tiers), table));
  for (net::HostId m = 0; m < measurers; ++m) topo.add_host(table1.host(m));
  for (int i = 0; i < relay_hosts; ++i) {
    net::Host host;
    host.name = "table1-relay-";
    host.name += std::to_string(i);
    host.nic_up_bits = host.nic_down_bits = net::mbit(400.0 + 60.0 * i);
    host.cpu_cores = 4;
    const net::HostId id = topo.add_host(host);
    topo.set_host_tier(id, static_cast<int>(measurers) + i % kRelayTiers);
  }
  return topo;
}

/// Three measurer hosts and `relay_hosts` relay hosts on a jittered
/// three-tier model: more hosts than table1_topology's, other path code.
net::Topology tiered_topology(int relay_hosts) {
  std::vector<net::PathCharacteristics> table;
  for (const double rtt : {0.008, 0.05, 0.11, 0.012, 0.08, 0.02})
    table.push_back({rtt, 1.0e-6, 5.0e-5});
  net::Topology topo(net::PathModel(3, table, /*rtt_jitter=*/0.2,
                                    /*seed=*/5));
  for (int i = 0; i < 3 + relay_hosts; ++i) {
    net::Host host;
    host.name = i < 3 ? "tier-measurer-" : "tier-relay-";
    host.name += std::to_string(i);
    host.nic_up_bits = host.nic_down_bits =
        i < 3 ? net::mbit(950) : net::mbit(300.0 + 25.0 * i);
    host.cpu_cores = 8;
    topo.add_host(host);
  }
  return topo;
}

/// One slot of the sequence: which topology, how many targets, and which
/// fault plan (-1: none armed).
struct SlotShape {
  int topology;
  std::size_t targets;
  int plan;
  bool cohost;  // target 0 shares a host with its first measurer
};

/// Slots that shrink and grow between 1 and 300 targets, switch
/// topologies, and arm crash/disconnect/report faults or a whole-slot
/// timeout (right after a full 300-target slot).
const SlotShape kSequence[] = {
    {0, 3, -1, false},    {0, kMaxTargets, 0, false},
    {0, 1, -1, true},     {0, kMaxTargets, -1, false},
    {0, 120, 1, false},   {1, 1, 0, false},
    {1, 57, 0, true},     {1, kMaxTargets, 0, false},
    {1, 2, -1, false},    {0, 150, 0, true},
    {0, 9, 1, false},     {0, 40, -1, false},
};

/// Topologies, relay models, fault plans and every slot's target list,
/// built once so that running the sequence touches nothing else.
struct Fixture {
  std::vector<net::Topology> topologies;
  std::vector<std::vector<net::HostId>> measurers, relay_hosts;
  std::vector<tor::RelayModel> models;
  std::vector<fault::FaultPlan> plans;
  std::vector<std::vector<SlotRunner::ConcurrentTarget>> targets;
  Params params;

  Fixture() {
    topologies.push_back(table1_topology(12));
    topologies.push_back(tiered_topology(40));
    measurers = {{0, 1, 2, 3, 4}, {0, 1, 2}};
    relay_hosts.resize(2);
    for (std::size_t k = 0; k < topologies.size(); ++k)
      for (net::HostId h = measurers[k].size();
           h < topologies[k].host_count(); ++h)
        relay_hosts[k].push_back(h);

    models.resize(kMaxTargets);
    for (std::size_t i = 0; i < models.size(); ++i) {
      tor::RelayModel& m = models[i];
      m.name = "relay-";
      m.name += std::to_string(i);
      m.nic_up_bits = m.nic_down_bits = net::mbit(100.0 + 7.0 * (i % 40));
      m.rate_limit_bits = i % 3 == 0 ? net::mbit(5.0 + 3.0 * (i % 17)) : 0.0;
      m.cpu = tor::CpuModel::us_sw();
      m.background_demand_bits = net::mbit(static_cast<double>(i % 5));
    }

    fault::FaultSpec crashes;
    crashes.measurer_crash = 0.3;
    crashes.relay_disconnect = 0.2;
    crashes.report_drop = 0.1;
    crashes.report_truncate = 0.2;
    fault::FaultSpec timeout;
    timeout.slot_timeout = 1.0;
    plans = {fault::FaultPlan(crashes, 20210613),
             fault::FaultPlan(timeout, 20210613)};

    sim::Rng rng(7);
    for (const SlotShape& shape : kSequence) {
      const auto k = static_cast<std::size_t>(shape.topology);
      std::vector<SlotRunner::ConcurrentTarget> slot(shape.targets);
      for (std::size_t t = 0; t < slot.size(); ++t) {
        SlotRunner::ConcurrentTarget& target = slot[t];
        target.relay = &models[(t * 7 + targets.size()) % models.size()];
        target.host = relay_hosts[k][static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   relay_hosts[k].size() - 1)))];
        const auto team = static_cast<std::size_t>(rng.uniform_int(1, 3));
        std::vector<net::HostId> hosts = measurers[k];
        for (std::size_t n = hosts.size(); n > 1; --n) {  // Fisher-Yates
          const auto j = rng.uniform_int(0, static_cast<std::int64_t>(n) - 1);
          std::swap(hosts[n - 1], hosts[static_cast<std::size_t>(j)]);
        }
        for (std::size_t i = 0; i < team; ++i)
          target.team.push_back({hosts[i], net::mbit(rng.uniform(20, 300)),
                                 static_cast<int>(rng.uniform_int(10, 160))});
        const double draw = rng.uniform();
        if (draw < 0.1) target.behavior = TargetBehavior::kLieAboutBackground;
        if (draw >= 0.1 && draw < 0.2)
          target.behavior = TargetBehavior::kForgeEchoes;
        // Half the targets hash their name on demand.
        if (rng.chance(0.5))
          target.name_hash = sim::hash_tag(target.relay->name);
      }
      if (shape.cohost) slot[0].host = slot[0].team[0].host;
      targets.push_back(std::move(slot));
    }
  }

  /// A runner for slot `i` of the sequence, as a campaign lane builds one.
  SlotRunner runner(std::size_t i) const {
    const SlotShape& shape = kSequence[i];
    SlotRunner r(topologies[static_cast<std::size_t>(shape.topology)], params,
                 sim::Rng(1000 + i));
    if (shape.plan >= 0)
      r.arm_faults(&plans[static_cast<std::size_t>(shape.plan)], 40 + i);
    return r;
  }
};

TEST(SlotWorkspaceReuse, ReusedWorkspaceMatchesFresh) {
  const Fixture fx;
  SlotWorkspace reused;
  // Telemetry rides along on the reused side only: it must not change a
  // result, and its segment histogram shows that crashes split slots.
  telemetry::Recorder recorder;
  recorder.begin_run(1);
  telemetry::SlotProbe probe;
  probe.arm(recorder.time_source(), recorder.lane(0), recorder.engine());
  int degraded = 0, starved = 0, timed_out = 0, caught = 0;
  for (std::size_t i = 0; i < std::size(kSequence); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    SlotRunner warm = fx.runner(i);
    warm.set_probe(&probe);
    probe.begin_slot();
    const std::vector<SlotOutcome>& got =
        warm.run_concurrent(fx.targets[i], reused);
    probe.finish_slot(got.size());
    SlotWorkspace fresh_ws;
    SlotRunner fresh = fx.runner(i);
    const std::vector<SlotOutcome>& want =
        fresh.run_concurrent(fx.targets[i], fresh_ws);
    ASSERT_EQ(got.size(), fx.targets[i].size());
    EXPECT_TRUE(got == want);
    for (std::size_t t = 0; t < got.size(); ++t) {
      // The verdicts carry no series; the recorded outcomes, series
      // included, match field for field.
      EXPECT_TRUE(got[t].x_by_measurer.empty() && got[t].z_bits.empty());
      const SlotOutcome out = warm.recorded(reused, t);
      EXPECT_TRUE(out == fresh.recorded(fresh_ws, t)) << "target " << t;
      ASSERT_EQ(out.x_by_measurer.size(), fx.targets[i][t].team.size());
      degraded += !out.failed && out.quality < 1.0;
      starved += out.failure == SlotFailure::kInsufficientEvidence;
      caught += out.verification_failed;
      if (out.failure == SlotFailure::kTimeout) {
        ++timed_out;
        EXPECT_TRUE(out.z_bits.empty());
        EXPECT_TRUE(out.x_by_measurer.front().empty());
        EXPECT_EQ(out.estimate_bits, 0.0);
      } else {
        EXPECT_EQ(out.z_bits.size(),
                  static_cast<std::size_t>(fx.params.slot_seconds));
      }
    }
  }
  // The sequence reaches what it claims to cover.
  EXPECT_GT(degraded, 0);
  EXPECT_GT(starved, 0);
  EXPECT_GT(caught, 0);
  EXPECT_EQ(timed_out, 120 + 9);
  recorder.end_run();
  bool split = false;
  for (const auto& [name, hist] : recorder.snapshot().histograms)
    if (name == "slot/segments")
      for (std::size_t b = 2; b < hist.buckets.size(); ++b)
        split = split || hist.buckets[b] > 0;
  EXPECT_TRUE(split);
}

TEST(SlotWorkspaceReuse, WarmWorkspaceAllocatesNothing) {
  // The first pass grows the workspace to every shape of the sequence;
  // the second runs the same slots, each on a new runner, and may not
  // allocate at all.
  const Fixture fx;
  SlotWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t allocations = 0;
    for (std::size_t i = 0; i < std::size(kSequence); ++i) {
      const std::size_t before = g_allocations;
      SlotRunner runner = fx.runner(i);
      const std::vector<SlotOutcome>& outcomes =
          runner.run_concurrent(fx.targets[i], ws);
      allocations += g_allocations - before;
      ASSERT_EQ(outcomes.size(), fx.targets[i].size());
    }
    if (pass == 0) {
      EXPECT_GT(allocations, 0u);  // the counter is live
    } else {
      EXPECT_EQ(allocations, 0u);
    }
  }
}

TEST(MaterializeAllocations, OneAllocationPerRelay) {
  // A synthetic population is plain data: each relay's name is its only
  // heap block. Relay hosts are unnamed and nothing keeps a second copy
  // of a name; the rest is a fixed number of growing vectors.
  constexpr int kRelays = 2000;
  const scenario::ScenarioSpec spec{
      .population = scenario::SyntheticPopulationSpec{.relays = kRelays},
      .team = {.capacity_bits = {net::gbit(1), net::gbit(1)}}};
  const std::size_t before = g_allocations;
  const scenario::MaterializedScenario mat = scenario::materialize(spec);
  const std::size_t allocations = g_allocations - before;
  ASSERT_EQ(mat.relays.size(), std::size_t{kRelays});
  EXPECT_LE(allocations, std::size_t{kRelays} + 64);
  EXPECT_GE(allocations, std::size_t{kRelays});  // the counter is live
}

TEST(MaterializeAllocations, ShadowPopulationMovesItsFingerprints) {
  // The 328-relay Shadow network names each relay once, and the
  // population takes those names over instead of copying them.
  const scenario::ScenarioSpec spec{
      .population = scenario::ShadowPopulationSpec{},
      .team = {.capacity_bits = {net::gbit(1), net::gbit(1), net::gbit(1)}}};
  const std::size_t before = g_allocations;
  const scenario::MaterializedScenario mat = scenario::materialize(spec);
  const std::size_t allocations = g_allocations - before;
  ASSERT_EQ(mat.relays.size(), 328u);
  EXPECT_LE(allocations, mat.relays.size() + 64);
  EXPECT_GT(allocations, 0u);  // the counter is live
}

/// The percentile as the sort-based implementation computed it.
double sorted_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double rank = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

TEST(SlotWorkspaceReuse, SelectionPercentileMatchesSortBits) {
  sim::Rng rng(20210613);
  for (std::size_t n = 1; n <= 70; ++n) {
    // Values from a small pool so most samples have ties, signed zeros
    // included.
    std::vector<double> xs(n);
    for (double& x : xs) {
      const auto pick = rng.uniform_int(0, 9);
      x = pick == 0 ? -0.0 : pick == 1 ? 0.0 : rng.uniform(-5, 5);
      if (rng.chance(0.3)) x = std::floor(x);
    }
    for (const double q : {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0}) {
      const double want = sorted_percentile(xs, q);
      const double copied = metrics::percentile(xs, q);
      std::vector<double> scratch = xs;
      const double in_place = metrics::percentile_in_place(scratch, q);
      EXPECT_EQ(std::memcmp(&copied, &want, sizeof want), 0)
          << "n=" << n << " q=" << q;
      EXPECT_EQ(std::memcmp(&in_place, &want, sizeof want), 0)
          << "n=" << n << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace flashflow::core
