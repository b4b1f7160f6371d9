#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/team.h"
#include "net/units.h"
#include "sim/random.h"
#include "tor/cpu_model.h"

namespace flashflow::scenario {

namespace {

void reject(const std::string& what) {
  throw std::invalid_argument("ScenarioSpec: " + what);
}

/// Relay model for one Table 1 lab relay (the §6 experiment shape).
tor::RelayModel make_table1_relay(std::size_t index, double limit_mbit,
                                  double background_mbit) {
  tor::RelayModel model;
  model.name = "relay-" + std::to_string(index) + "-" +
               std::to_string(static_cast<int>(limit_mbit));
  model.nic_up_bits = model.nic_down_bits = net::mbit(954);
  model.rate_limit_bits = limit_mbit > 0.0 ? net::mbit(limit_mbit) : 0.0;
  model.cpu = tor::CpuModel::us_sw();
  model.background_demand_bits = net::mbit(background_mbit);
  return model;
}

/// Relay model whose Tor ground truth at `sockets` equals `capacity_bits`:
/// NIC headroom above capacity and the CPU base scaled so the per-socket
/// overhead cancels (the mapping measure_network.cpp used to hand-roll).
tor::RelayModel make_capacity_relay(std::string name, double capacity_bits,
                                    double background_bits, int sockets) {
  tor::RelayModel model;
  model.name = std::move(name);
  model.nic_up_bits = model.nic_down_bits = capacity_bits * 1.2;
  model.cpu.base_bits =
      capacity_bits * (1.0 + model.cpu.per_socket_overhead * sockets);
  model.background_demand_bits = background_bits;
  return model;
}

std::uint64_t sub_seed(const ScenarioSpec& spec, std::string_view tag) {
  return spec.seed ^ sim::hash_tag(tag);
}

/// Applies the adversary mix: a deterministic per-relay draw, in
/// population order, from the scenario seed.
void assign_behaviors(const ScenarioSpec& spec,
                      std::vector<campaign::CampaignRelay>& relays) {
  if (!spec.adversaries.any()) return;
  sim::Rng rng(sub_seed(spec, "scenario/adversaries"));
  for (auto& relay : relays) {
    const double u = rng.uniform();
    if (u < spec.adversaries.liar_fraction)
      relay.behavior = core::TargetBehavior::kLieAboutBackground;
    else if (u < spec.adversaries.liar_fraction +
                     spec.adversaries.forger_fraction)
      relay.behavior = core::TargetBehavior::kForgeEchoes;
  }
}

/// Applies the background model: per-relay utilization drawn from a
/// clamped normal, scaled by the relay's nominal capacity.
void assign_background(const ScenarioSpec& spec,
                       std::vector<campaign::CampaignRelay>& relays) {
  if (!spec.background.enabled) return;
  sim::Rng rng(sub_seed(spec, "scenario/background"));
  for (auto& relay : relays) {
    const double utilization =
        std::clamp(rng.normal(spec.background.utilization_mean,
                              spec.background.utilization_sd),
                   0.0, 0.95);
    relay.model.background_demand_bits =
        relay.model.ground_truth(spec.params.sockets) * utilization;
  }
}

/// A population's capacity clamp: std::clamp(v, lo, hi) is undefined when
/// hi < lo, and a maximum <= 0 leaves every relay without capacity.
/// `section` is the scenario-file prefix ("synthetic" or "shadow").
void check_capacity_clamp(const std::string& section, double min_bits,
                          double max_bits) {
  if (!(max_bits > 0.0)) reject(section + ".max_capacity_bits must be > 0");
  if (!(min_bits <= max_bits))
    reject(section + ".min_capacity_bits must be <= " + section +
           ".max_capacity_bits");
}

}  // namespace

void ScenarioSpec::validate() const {
  params.validate();
  if (periods < 1) reject("periods must be >= 1");
  // The campaign's pool starts every worker thread up front.
  if (threads < 0 || threads > 4096)
    reject("threads must be in [0, 4096] (0 = hardware concurrency)");
  const auto bad_fraction = [](double f) { return f < 0.0 || f > 1.0; };
  if (bad_fraction(adversaries.liar_fraction) ||
      bad_fraction(adversaries.forger_fraction) ||
      adversaries.liar_fraction + adversaries.forger_fraction > 1.0)
    reject("adversary fractions must be in [0, 1] and sum to <= 1");
  if (!background.enabled && background != BackgroundModel{})
    reject("background utilization applies only with background.enabled");
  if (background.utilization_mean < 0.0 || background.utilization_sd < 0.0)
    reject("background utilization mean/sd must be non-negative");
  if (!team.capacity_bits.empty()) {
    // Align overrides with the team — the explicit names, or the
    // population's default team (table1: the non-relay hosts; shadow: the
    // three built-in measurers; synthetic: one host per override).
    std::size_t team_size = team.measurer_names.size();
    if (team.measurer_names.empty()) {
      if (const auto* t1 = std::get_if<Table1PopulationSpec>(&population)) {
        team_size = 0;
        for (const auto& name : net::table1_host_names())
          if (name != t1->relay_host) ++team_size;
      } else if (std::holds_alternative<ShadowPopulationSpec>(population)) {
        team_size = 3;
      } else {
        team_size = team.capacity_bits.size();  // synthetic: always aligned
      }
    }
    if (team.capacity_bits.size() != team_size)
      reject("team capacity overrides misaligned with the measurer team");
  }
  // No host is found by an empty name (relay hosts are unnamed): refuse
  // it here rather than at materialization.
  std::set<std::string> named;
  for (const std::string& name : team.measurer_names) {
    if (name.empty()) reject("team.measurers has an empty name");
    if (!named.insert(name).second)
      reject("team.measurers names " + name +
             " twice (the §4.2 mesh would count its NIC once per entry)");
  }
  if (topology != TopologySpec{} &&
      !std::holds_alternative<SyntheticPopulationSpec>(population))
    reject("topology.* keys apply only to synthetic populations (table1 "
           "and shadow bring their own path tables)");
  if (topology.tiers < 1) reject("topology.tiers must be >= 1");
  if (topology.tiers > 1 && topology.tier_rtt_s.empty())
    reject("topology.tiers > 1 needs topology.tier_rtt_s");
  const std::size_t tiers = static_cast<std::size_t>(topology.tiers);
  if (!topology.tier_rtt_s.empty() &&
      topology.tier_rtt_s.size() != tiers * (tiers + 1) / 2)
    reject("topology tier_rtt_s needs tiers*(tiers+1)/2 entries "
           "(upper triangle incl. diagonal)");
  for (const double rtt : topology.tier_rtt_s)
    if (rtt < 0.0) reject("topology tier RTTs must be >= 0");
  if (topology.loss < 0.0 || topology.loss >= 1.0 ||
      topology.loaded_loss < 0.0 || topology.loaded_loss >= 1.0)
    reject("topology loss rates must be in [0, 1)");
  if (topology.rtt_jitter < 0.0 || topology.rtt_jitter >= 1.0)
    reject("topology rtt_jitter must be in [0, 1)");
  faults.validate(params.slot_seconds);
  if (const auto* t1 = std::get_if<Table1PopulationSpec>(&population)) {
    if (t1->rate_limit_mbit.empty()) reject("table1 population is empty");
    if (t1->relay_host.empty()) reject("table1.relay_host is empty");
    for (const double limit : t1->rate_limit_mbit)
      if (limit < 0.0)
        reject("table1 rate limits must be >= 0 (0 = unlimited)");
    if (t1->background_mbit < 0.0 || t1->prior_mbit < 0.0)
      reject("table1 background/prior must be >= 0");
  } else if (const auto* syn =
                 std::get_if<SyntheticPopulationSpec>(&population)) {
    if (syn->relays <= 0) reject("synthetic population needs relays > 0");
    if (team.capacity_bits.empty())
      reject("synthetic population needs team capacity overrides "
             "(there is no real topology to run the iPerf mesh on)");
    if (!team.measurer_names.empty())
      reject("synthetic populations create their own measurer hosts from "
             "the capacity overrides; named measurers do not apply");
    check_capacity_clamp("synthetic", syn->params.min_capacity_bits,
                         syn->params.max_capacity_bits);
  } else if (const auto* shadow =
                 std::get_if<ShadowPopulationSpec>(&population)) {
    check_capacity_clamp("shadow", shadow->params.min_capacity_bits,
                         shadow->params.max_capacity_bits);
  }
}

std::uint64_t period_seed(const ScenarioSpec& spec, int period) {
  return spec.seed ^
         sim::hash_tag("scenario/period-" + std::to_string(period));
}

namespace {

MaterializedScenario populate(const ScenarioSpec& spec,
                              const Table1PopulationSpec& t1) {
  MaterializedScenario mat{.topology = net::make_table1_hosts()};
  const net::HostId relay_host = mat.topology.find(t1.relay_host);
  mat.relays.reserve(t1.rate_limit_mbit.size());
  for (std::size_t i = 0; i < t1.rate_limit_mbit.size(); ++i) {
    campaign::CampaignRelay relay;
    relay.model =
        make_table1_relay(i, t1.rate_limit_mbit[i], t1.background_mbit);
    relay.host = relay_host;
    relay.prior_estimate_bits =
        t1.prior_mbit > 0.0 ? net::mbit(t1.prior_mbit) : 0.0;
    mat.relays.push_back(std::move(relay));
  }
  // Default team: every Table 1 host except the relay host.
  std::vector<std::string> names = spec.team.measurer_names;
  if (names.empty())
    for (const auto& name : net::table1_host_names())
      if (name != t1.relay_host) names.push_back(name);
  for (const auto& name : names)
    mat.measurer_hosts.push_back(mat.topology.find(name));
  return mat;
}

MaterializedScenario populate(const ScenarioSpec& spec,
                              const ShadowPopulationSpec& shadow) {
  auto network = shadowsim::make_shadow_net(shadow.params, shadow.seed);
  MaterializedScenario mat{.topology = shadowsim::shadow_topology(network)};
  mat.relays.reserve(network.relays.size());
  for (std::size_t i = 0; i < network.relays.size(); ++i) {
    auto& r = network.relays[i];
    campaign::CampaignRelay relay;
    // The topology reads no name, so the fingerprint moves into the model.
    relay.model = make_capacity_relay(
        std::move(r.fingerprint), r.capacity_bits,
        r.capacity_bits * r.utilization, spec.params.sockets);
    relay.host = 3 + i;  // shadow_topology: hosts 0..2 are the measurers
    relay.prior_estimate_bits = r.advertised_bits;
    mat.relays.push_back(std::move(relay));
  }
  std::vector<std::string> names = spec.team.measurer_names;
  if (names.empty()) names = {"measurer-0", "measurer-1", "measurer-2"};
  for (const auto& name : names)
    mat.measurer_hosts.push_back(mat.topology.find(name));
  return mat;
}

/// The spec's tier table with its network-wide losses; an empty table is
/// the 1-tier flat mesh.
net::PathModel synthetic_paths(const ScenarioSpec& spec) {
  const TopologySpec& topo = spec.topology;
  std::vector<net::PathCharacteristics> table;
  for (const double rtt : topo.tier_rtt_s)
    table.push_back({rtt, topo.loss, topo.loaded_loss});
  if (table.empty()) table.push_back({0.05, topo.loss, topo.loaded_loss});
  return net::PathModel(topo.tiers, table, topo.rtt_jitter,
                        sub_seed(spec, "scenario/tiered-path"));
}

MaterializedScenario populate(const ScenarioSpec& spec,
                              const SyntheticPopulationSpec& syn) {
  const auto capacities = analysis::sample_capacities(
      syn.params, syn.relays, spec.seed ^ sim::hash_tag("scenario/synthetic"));
  // Measurer hosts first (ids 0..m-1), then one unnamed host per relay,
  // on the spec's tiers (the flat mesh by default).
  MaterializedScenario mat{.topology = net::Topology(synthetic_paths(spec))};
  mat.topology.reserve_hosts(spec.team.capacity_bits.size() +
                             capacities.size());
  mat.relays.reserve(capacities.size());
  for (std::size_t i = 0; i < spec.team.capacity_bits.size(); ++i) {
    net::Host host;
    host.name = "measurer-" + std::to_string(i);
    host.nic_up_bits = host.nic_down_bits = spec.team.capacity_bits[i];
    host.cpu_cores = 4;
    mat.measurer_hosts.push_back(mat.topology.add_host(std::move(host)));
  }
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    net::Host host;
    host.nic_up_bits = host.nic_down_bits = capacities[i] * 1.2;
    host.cpu_cores = 2;
    const net::HostId id = mat.topology.add_host(std::move(host));
    campaign::CampaignRelay relay;
    relay.model = make_capacity_relay(
        "synthetic-relay-" + std::to_string(i), capacities[i], 0.0,
        spec.params.sockets);
    relay.host = id;
    relay.prior_estimate_bits =
        syn.prior_fraction > 0.0 ? capacities[i] * syn.prior_fraction : 0.0;
    mat.relays.push_back(std::move(relay));
  }
  return mat;
}

}  // namespace

MaterializedScenario materialize(const ScenarioSpec& spec) {
  spec.validate();
  MaterializedScenario mat = std::visit(
      [&spec](const auto& population) { return populate(spec, population); },
      spec.population);

  mat.measurer_capacity_bits = spec.team.capacity_bits;
  assign_behaviors(spec, mat.relays);
  assign_background(spec, mat.relays);
  return mat;
}

std::vector<double> resolve_team_capacities(const ScenarioSpec& spec,
                                            const MaterializedScenario& mat) {
  if (!mat.measurer_capacity_bits.empty()) return mat.measurer_capacity_bits;
  core::Team team(mat.topology, mat.measurer_hosts);
  team.measure_measurers(spec.seed ^ sim::hash_tag("scenario/mesh"));
  return team.capacities();
}

PlanResult plan(const ScenarioSpec& spec) {
  const MaterializedScenario mat = materialize(spec);
  const std::vector<double> team_caps = resolve_team_capacities(spec, mat);

  PlanResult plan;
  plan.priors = campaign::scheduling_priors(mat.relays, spec.params);
  plan.relays = static_cast<int>(plan.priors.size());
  plan.total_prior_bits =
      std::accumulate(plan.priors.begin(), plan.priors.end(), 0.0);
  plan.total_requirement_bits =
      plan.total_prior_bits * spec.params.excess_factor();
  plan.team_capacity_bits =
      std::accumulate(team_caps.begin(), team_caps.end(), 0.0);

  const campaign::PeriodLayout layout = campaign::lay_out_period(
      plan.priors, plan.team_capacity_bits, spec.params, spec.schedule,
      period_seed(spec, 0));
  plan.slots_in_period = layout.slots_in_period;
  std::vector<char> occupied(
      static_cast<std::size_t>(layout.slots_in_period), 0);
  for (const int s : layout.relay_slot)
    occupied[static_cast<std::size_t>(s)] = 1;
  plan.slots_used =
      static_cast<int>(std::count(occupied.begin(), occupied.end(), 1));
  plan.simulated_seconds = static_cast<double>(plan.slots_in_period) *
                           spec.params.slot_seconds;
  return plan;
}

}  // namespace flashflow::scenario
