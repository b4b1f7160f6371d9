#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/schedule.h"
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
                                  double background_mbit, double ratio) {
  tor::RelayModel model;
  model.name = "relay-" + std::to_string(index) + "-" +
               std::to_string(static_cast<int>(limit_mbit));
  model.nic_up_bits = model.nic_down_bits = net::mbit(954);
  model.rate_limit_bits = limit_mbit > 0.0 ? net::mbit(limit_mbit) : 0.0;
  model.cpu = tor::CpuModel::us_sw();
  model.background_demand_bits = net::mbit(background_mbit);
  model.ratio_r = ratio;
  return model;
}

/// Relay model whose Tor ground truth at `sockets` equals `capacity_bits`:
/// NIC headroom above capacity and the CPU base scaled so the per-socket
/// overhead cancels (the mapping measure_network.cpp used to hand-roll).
tor::RelayModel make_capacity_relay(std::string name, double capacity_bits,
                                    double background_bits, double ratio,
                                    int sockets) {
  tor::RelayModel model;
  model.name = std::move(name);
  model.nic_up_bits = model.nic_down_bits = capacity_bits * 1.2;
  model.cpu.base_bits =
      capacity_bits * (1.0 + model.cpu.per_socket_overhead * sockets);
  model.background_demand_bits = background_bits;
  model.ratio_r = ratio;
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

}  // namespace

void ScenarioSpec::validate() const {
  params.validate();
  if (periods < 1) reject("periods must be >= 1");
  const auto bad_fraction = [](double f) { return f < 0.0 || f > 1.0; };
  if (bad_fraction(adversaries.liar_fraction) ||
      bad_fraction(adversaries.forger_fraction) ||
      adversaries.liar_fraction + adversaries.forger_fraction > 1.0)
    reject("adversary fractions must be in [0, 1] and sum to <= 1");
  if (background.enabled &&
      (background.utilization_mean < 0.0 || background.utilization_sd < 0.0))
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
  if (topology.path_model == TopologySpec::PathModelKind::kDense) {
    if (topology != TopologySpec{})
      reject("topology tier parameters apply only to path_model 'tiered'");
  } else {
    if (!std::holds_alternative<SyntheticPopulationSpec>(population))
      reject("tiered path model applies only to synthetic populations "
             "(table1 paths are individually measured; shadow installs its "
             "own region-tiered model)");
    if (topology.tiers < 1) reject("topology tiers must be >= 1");
    const std::size_t tiers = static_cast<std::size_t>(topology.tiers);
    const std::size_t triangle = tiers * (tiers + 1) / 2;
    if (!topology.tier_rtt_s.empty() &&
        topology.tier_rtt_s.size() != triangle)
      reject("topology tier_rtt_s needs tiers*(tiers+1)/2 entries "
             "(upper triangle incl. diagonal)");
    for (const double rtt : topology.tier_rtt_s)
      if (rtt < 0.0) reject("topology tier RTTs must be >= 0");
    if (topology.loss < 0.0 || topology.loss >= 1.0 ||
        topology.loaded_loss < 0.0 || topology.loaded_loss >= 1.0)
      reject("topology loss rates must be in [0, 1)");
    if (topology.rtt_jitter < 0.0 || topology.rtt_jitter >= 1.0)
      reject("topology rtt_jitter must be in [0, 1)");
  }
  if (speedtest) {
    if (speedtest->warmup_days < 0 || speedtest->test_duration_hours <= 0 ||
        speedtest->cooldown_days < 0)
      reject("speedtest window must have warmup/cooldown >= 0 and a "
             "positive test duration");
    if (!std::holds_alternative<SyntheticPopulationSpec>(population))
      reject("speedtest window requires a synthetic population");
  }
  faults.validate(params.slot_seconds);
  if (const auto* t1 = std::get_if<Table1PopulationSpec>(&population)) {
    if (t1->rate_limit_mbit.empty()) reject("table1 population is empty");
    for (const double limit : t1->rate_limit_mbit)
      if (limit < 0.0)
        reject("table1 rate limits must be >= 0 (0 = unlimited)");
    if (t1->background_mbit < 0.0 || t1->prior_mbit < 0.0)
      reject("table1 background/prior must be >= 0");
  } else if (const auto* syn =
                 std::get_if<SyntheticPopulationSpec>(&population)) {
    if (syn->relays <= 0) reject("synthetic population needs relays > 0");
    if (!team.measurer_names.empty())
      reject("synthetic populations create their own measurer hosts from "
             "the capacity overrides; named measurers do not apply");
  }
}

ScenarioBuilder::ScenarioBuilder(std::string name) {
  spec_.name = std::move(name);
}

ScenarioBuilder& ScenarioBuilder::table1_relays(
    std::vector<double> rate_limit_mbit, double background_mbit,
    double prior_mbit) {
  Table1PopulationSpec pop;
  pop.rate_limit_mbit = std::move(rate_limit_mbit);
  pop.background_mbit = background_mbit;
  pop.prior_mbit = prior_mbit;
  spec_.population = std::move(pop);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shadow_net(shadowsim::ShadowNetParams params,
                                             std::uint64_t seed) {
  spec_.population = ShadowPopulationSpec{params, seed};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::synthetic(analysis::PopulationParams params,
                                            int relays,
                                            double prior_fraction) {
  spec_.population = SyntheticPopulationSpec{params, relays, prior_fraction};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology(TopologySpec topology) {
  spec_.topology = std::move(topology);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tiered_topology(int tiers) {
  TopologySpec topo;
  topo.path_model = TopologySpec::PathModelKind::kTiered;
  topo.tiers = tiers;
  spec_.topology = std::move(topo);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::speedtest(SpeedTestWindow window) {
  spec_.speedtest = window;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::measurers(std::vector<std::string> names) {
  spec_.team.measurer_names = std::move(names);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::measurer_capacities(
    std::vector<double> capacity_bits) {
  spec_.team.capacity_bits = std::move(capacity_bits);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::liars(double fraction) {
  spec_.adversaries.liar_fraction = fraction;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::forgers(double fraction) {
  spec_.adversaries.forger_fraction = fraction;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::background_utilization(double mean,
                                                         double sd) {
  spec_.background = BackgroundModel{true, mean, sd};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::params(core::Params params) {
  spec_.params = params;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::schedule(campaign::ScheduleMode mode) {
  spec_.schedule = mode;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::periods(int periods) {
  spec_.periods = periods;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::threads(int threads) {
  spec_.threads = threads;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shard_slots(int shard_slots) {
  spec_.shard_slots = shard_slots;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faults(fault::FaultSpec faults) {
  spec_.faults = faults;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::record_outcomes(bool on) {
  spec_.record_outcomes = on;
  return *this;
}

ScenarioSpec ScenarioBuilder::build() const {
  spec_.validate();
  return spec_;
}

std::uint64_t period_seed(const ScenarioSpec& spec, int period) {
  return spec.seed ^
         sim::hash_tag("scenario/period-" + std::to_string(period));
}

campaign::CampaignConfig campaign_config(
    const ScenarioSpec& spec, const MaterializedScenario& mat,
    std::vector<double> team_caps, int period, telemetry::Recorder* recorder) {
  campaign::CampaignConfig config;
  config.params = spec.params;
  config.measurer_hosts = mat.measurer_hosts;
  config.measurer_capacity_bits = std::move(team_caps);
  config.schedule = spec.schedule;
  config.threads = spec.threads;
  config.shard_slots = spec.shard_slots;
  config.seed = period_seed(spec, period);
  config.record_outcomes = spec.record_outcomes;
  config.faults = spec.faults;
  config.telemetry = recorder;
  return config;
}

MaterializedScenario materialize(const ScenarioSpec& spec) {
  spec.validate();
  MaterializedScenario mat;

  if (const auto* t1 = std::get_if<Table1PopulationSpec>(&spec.population)) {
    mat.topology = net::make_table1_hosts();
    const net::HostId relay_host = mat.topology.find(t1->relay_host);
    for (std::size_t i = 0; i < t1->rate_limit_mbit.size(); ++i) {
      campaign::CampaignRelay relay;
      relay.model = make_table1_relay(i, t1->rate_limit_mbit[i],
                                      t1->background_mbit,
                                      spec.params.ratio);
      relay.host = relay_host;
      relay.prior_estimate_bits =
          t1->prior_mbit > 0.0 ? net::mbit(t1->prior_mbit) : 0.0;
      mat.relays.push_back(std::move(relay));
    }
    // Default team: every Table 1 host except the relay host.
    std::vector<std::string> names = spec.team.measurer_names;
    if (names.empty())
      for (const auto& name : net::table1_host_names())
        if (name != t1->relay_host) names.push_back(name);
    for (const auto& name : names)
      mat.measurer_hosts.push_back(mat.topology.find(name));
  } else if (const auto* shadow =
                 std::get_if<ShadowPopulationSpec>(&spec.population)) {
    const auto network = shadowsim::make_shadow_net(shadow->params,
                                                    shadow->seed);
    mat.topology = shadowsim::shadow_topology(network);
    for (std::size_t i = 0; i < network.relays.size(); ++i) {
      const auto& r = network.relays[i];
      campaign::CampaignRelay relay;
      relay.model = make_capacity_relay(
          r.fingerprint, r.capacity_bits, r.capacity_bits * r.utilization,
          spec.params.ratio, spec.params.sockets);
      relay.host = 3 + i;  // shadow_topology: hosts 0..2 are the measurers
      relay.prior_estimate_bits = r.advertised_bits;
      mat.relays.push_back(std::move(relay));
    }
    std::vector<std::string> names = spec.team.measurer_names;
    if (names.empty()) names = {"measurer-0", "measurer-1", "measurer-2"};
    for (const auto& name : names)
      mat.measurer_hosts.push_back(mat.topology.find(name));
  } else {
    const auto& syn = std::get<SyntheticPopulationSpec>(spec.population);
    if (spec.team.capacity_bits.empty())
      reject("synthetic population needs team capacity overrides "
             "(there is no real topology to run the iPerf mesh on)");
    const auto capacities = analysis::sample_capacities(
        syn.params, syn.relays, spec.seed ^ sim::hash_tag("scenario/synthetic"));
    // Measurer hosts first (ids 0..m-1), then one host per relay, all on a
    // flat low-latency mesh. Under the default dense path model the mesh
    // is materialized all-pairs, so very large populations are
    // memory-heavy (three n x n matrices); topology.path_model 'tiered'
    // resolves the same pairs implicitly in O(hosts) memory, and its
    // 1-tier default reproduces the dense flat mesh bit-exactly. The
    // reservation sizes the dense matrices once; without it every
    // add_host re-lays them out.
    if (spec.topology.path_model == TopologySpec::PathModelKind::kTiered) {
      net::TieredPathParams tier_params;
      tier_params.tiers = spec.topology.tiers;
      tier_params.tier_rtt_s = spec.topology.tier_rtt_s;
      tier_params.loss = spec.topology.loss;
      tier_params.loaded_loss = spec.topology.loaded_loss;
      tier_params.rtt_jitter = spec.topology.rtt_jitter;
      tier_params.seed = spec.seed ^ sim::hash_tag("scenario/tiered-path");
      mat.topology.use_path_model(
          std::make_unique<net::TieredPathModel>(std::move(tier_params)));
    }
    mat.topology.reserve_hosts(spec.team.capacity_bits.size() +
                               capacities.size());
    for (std::size_t i = 0; i < spec.team.capacity_bits.size(); ++i) {
      net::Host host;
      host.name = "measurer-" + std::to_string(i);
      host.nic_up_bits = host.nic_down_bits = spec.team.capacity_bits[i];
      host.cpu_cores = 4;
      mat.measurer_hosts.push_back(mat.topology.add_host(std::move(host)));
    }
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      net::Host host;
      host.name = "synthetic-relay-" + std::to_string(i) + "-host";
      host.nic_up_bits = host.nic_down_bits = capacities[i] * 1.2;
      host.cpu_cores = 2;
      const net::HostId id = mat.topology.add_host(std::move(host));
      campaign::CampaignRelay relay;
      relay.model = make_capacity_relay(
          "synthetic-relay-" + std::to_string(i), capacities[i], 0.0,
          spec.params.ratio, spec.params.sockets);
      relay.host = id;
      relay.prior_estimate_bits =
          syn.prior_fraction > 0.0 ? capacities[i] * syn.prior_fraction : 0.0;
      mat.relays.push_back(std::move(relay));
    }
    if (spec.topology.path_model == TopologySpec::PathModelKind::kDense)
      for (net::HostId a = 0; a < mat.topology.host_count(); ++a)
        for (net::HostId b = a + 1; b < mat.topology.host_count(); ++b)
          mat.topology.set_path(a, b, 0.05, 1.0e-6, 5.0e-5);
  }

  mat.measurer_capacity_bits = spec.team.capacity_bits;
  assign_behaviors(spec, mat.relays);
  assign_background(spec, mat.relays);
  mat.fingerprints.reserve(mat.relays.size());
  for (const auto& relay : mat.relays)
    mat.fingerprints.push_back(relay.model.name);
  return mat;
}

Scenario::Scenario(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  if (spec_.speedtest)
    throw std::invalid_argument(
        "Scenario: the speedtest window applies only to run_speed_test, "
        "not to slot-based scenario runs");
}

const MaterializedScenario& Scenario::materialized() const {
  if (!materialized_)
    materialized_ = std::make_unique<MaterializedScenario>(materialize(spec_));
  return *materialized_;
}

std::vector<double> resolve_team_capacities(const ScenarioSpec& spec,
                                            const MaterializedScenario& mat) {
  if (!mat.measurer_capacity_bits.empty()) return mat.measurer_capacity_bits;
  core::Team team(mat.topology, mat.measurer_hosts);
  team.measure_measurers(spec.seed ^ sim::hash_tag("scenario/mesh"));
  return team.capacities();
}

const campaign::CampaignRunner& Scenario::runner() const {
  if (!runner_) {
    const MaterializedScenario& mat = materialized();
    runner_ = std::make_unique<campaign::CampaignRunner>(
        mat.topology,
        campaign_config(spec_, mat, resolve_team_capacities(spec_, mat), 0,
                        telemetry_));
  }
  return *runner_;
}

const std::vector<double>& Scenario::prior_capacities() const {
  if (priors_) return *priors_;
  std::vector<double> priors;
  if (materialized_) {
    // The population is already built: read the priors off it (the same
    // rule CampaignRunner applies) instead of regenerating the source.
    for (const auto& relay : materialized_->relays)
      priors.push_back(relay.prior_estimate_bits > 0.0
                           ? relay.prior_estimate_bits
                           : relay.model.ground_truth(spec_.params.sockets));
  } else if (const auto* t1 =
                 std::get_if<Table1PopulationSpec>(&spec_.population)) {
    for (std::size_t i = 0; i < t1->rate_limit_mbit.size(); ++i) {
      const auto model = make_table1_relay(i, t1->rate_limit_mbit[i],
                                           t1->background_mbit,
                                           spec_.params.ratio);
      priors.push_back(t1->prior_mbit > 0.0
                           ? net::mbit(t1->prior_mbit)
                           : model.ground_truth(spec_.params.sockets));
    }
  } else if (const auto* shadow =
                 std::get_if<ShadowPopulationSpec>(&spec_.population)) {
    const auto network = shadowsim::make_shadow_net(shadow->params,
                                                    shadow->seed);
    // Same rule the runner applies: the advertised-bandwidth prior, or
    // the oracle (ground truth == capacity for shadow relays) if a relay
    // somehow advertises nothing.
    for (const auto& r : network.relays)
      priors.push_back(r.advertised_bits > 0.0 ? r.advertised_bits
                                               : r.capacity_bits);
  } else {
    const auto& syn = std::get<SyntheticPopulationSpec>(spec_.population);
    priors = analysis::sample_capacities(
        syn.params, syn.relays,
        spec_.seed ^ sim::hash_tag("scenario/synthetic"));
    if (syn.prior_fraction > 0.0)
      for (double& p : priors) p *= syn.prior_fraction;
  }
  priors_ = std::make_unique<std::vector<double>>(std::move(priors));
  return *priors_;
}

PlanResult Scenario::plan() const {
  const std::vector<double>& priors = prior_capacities();
  PlanResult plan;
  plan.relays = static_cast<int>(priors.size());
  plan.total_prior_bits =
      std::accumulate(priors.begin(), priors.end(), 0.0);
  plan.total_requirement_bits =
      plan.total_prior_bits * spec_.params.excess_factor();
  if (!spec_.team.capacity_bits.empty()) {
    plan.team_capacity_bits =
        std::accumulate(spec_.team.capacity_bits.begin(),
                        spec_.team.capacity_bits.end(), 0.0);
  } else {
    // No overrides: resolving the team runs the iPerf mesh, which needs
    // the materialized topology anyway.
    plan.team_capacity_bits = runner().team_capacity_bits();
  }

  if (spec_.schedule == campaign::ScheduleMode::kGreedyPack) {
    const auto packing = core::greedy_pack(priors, plan.team_capacity_bits,
                                           spec_.params);
    plan.slots_in_period = packing.slots_used;
    plan.slots_used = packing.slots_used;
    plan.simulated_seconds =
        static_cast<double>(packing.slots_used) * spec_.params.slot_seconds;
  } else {
    core::PeriodSchedule schedule(
        spec_.params, plan.team_capacity_bits,
        period_seed(spec_, 0) ^ sim::hash_tag("campaign/schedule"));
    const auto slots = schedule.schedule_old_relays(priors);
    plan.slots_in_period = schedule.slots_in_period();
    plan.slots_used = static_cast<int>(
        std::set<int>(slots.begin(), slots.end()).size());
    plan.simulated_seconds = static_cast<double>(plan.slots_in_period) *
                             spec_.params.slot_seconds;
  }
  return plan;
}

campaign::RunStats Scenario::run(campaign::SlotSink& sink) const {
  return runner().run(materialized().relays, sink);
}

campaign::CampaignResult Scenario::run() const {
  return runner().run(materialized().relays);
}

analysis::SpeedTestResult run_speed_test(const ScenarioSpec& spec) {
  spec.validate();
  const auto* syn = std::get_if<SyntheticPopulationSpec>(&spec.population);
  if (!syn)
    throw std::invalid_argument(
        "run_speed_test: requires a synthetic population source");
  // The §3.4 experiment runs on the archive machinery, not on measurement
  // slots: reject spec fields it cannot honor rather than drop them.
  if (spec.adversaries.any() || spec.background.enabled ||
      !spec.team.measurer_names.empty() || !spec.team.capacity_bits.empty() ||
      spec.periods != 1 || spec.record_outcomes ||
      spec.schedule != campaign::ScheduleMode::kGreedyPack ||
      spec.threads != 1 || spec.shard_slots != 0 ||
      spec.topology != TopologySpec{} || syn->prior_fraction > 0.0 ||
      spec.faults.enabled())
    throw std::invalid_argument(
        "run_speed_test: adversary mix, background model, team, topology, "
        "periods, schedule, threads, record_outcomes, prior_fraction and "
        "faults do not apply to the §3.4 archive experiment");
  const SpeedTestWindow window = spec.speedtest.value_or(SpeedTestWindow{});
  analysis::SpeedTestConfig config;
  config.population = syn->params;
  // The archive machinery grows and churns the population itself; the
  // spec's relay count seeds the initial live-relay population.
  config.population.initial_relays = syn->relays;
  config.warmup_days = window.warmup_days;
  config.test_duration_hours = window.test_duration_hours;
  config.cooldown_days = window.cooldown_days;
  return analysis::run_speed_test_experiment(config, spec.seed);
}

}  // namespace flashflow::scenario
