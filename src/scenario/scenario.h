// Declarative experiment scenarios over the streaming campaign engine.
//
// A ScenarioSpec says *what* to measure — a relay population source, an
// adversary mix, a background-traffic model, a measurer team, a schedule
// mode and a period count — without any of the topology/allocation wiring
// the bench binaries used to hand-roll. ScenarioBuilder composes specs
// fluently; Scenario materializes one into a topology + campaign
// population and runs (or just plans) a single period through
// campaign::CampaignRunner; scenario::Experiment (experiment.h) drives the
// multi-period §4.3 feedback loop on top.
//
// Population sources:
//   - Table1PopulationSpec: lab relays on the paper's Table 1 Internet
//     hosts (the §6 accuracy experiments),
//   - ShadowPopulationSpec: the §7 5%-scale shadowsim network,
//   - SyntheticPopulationSpec: capacities sampled from the §3
//     analysis::population mixture (scale/scheduling studies).
//
// Everything is deterministic in (spec, seed) and independent of the
// worker thread count, inheriting the campaign engine's guarantee.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/population.h"
#include "analysis/speedtest.h"
#include "campaign/campaign.h"
#include "core/params.h"
#include "fault/fault.h"
#include "shadowsim/shadow_net.h"

namespace flashflow::scenario {

/// Lab relays hosted on one Table 1 vantage point (default US-SW), one
/// relay per rate limit, measured by the remaining Table 1 hosts.
struct Table1PopulationSpec {
  /// Operator rate limit per relay; 0 means unlimited (NIC/CPU-capped,
  /// the §6 "unlimited" configuration). Negative limits are rejected.
  std::vector<double> rate_limit_mbit;
  std::string relay_host = "US-SW";
  /// Offered client (background) traffic per relay.
  double background_mbit = 0.0;
  /// Scheduling prior z0 per relay; <= 0 means oracle prior.
  double prior_mbit = 0.0;

  friend bool operator==(const Table1PopulationSpec&,
                         const Table1PopulationSpec&) = default;
};

/// The §7 Shadow-style private Tor network: ~328 relays with advertised
/// bandwidths as scheduling priors and utilization-driven background.
struct ShadowPopulationSpec {
  shadowsim::ShadowNetParams params;
  std::uint64_t seed = 11;

  friend bool operator==(const ShadowPopulationSpec&,
                         const ShadowPopulationSpec&) = default;
};

/// Capacities sampled from the §3 population mixture; relays are placed on
/// synthetic hosts in a flat topology. Used for scale and scheduling
/// studies (e.g. the §7 efficiency numbers), where plan() needs no
/// topology at all.
struct SyntheticPopulationSpec {
  analysis::PopulationParams params;
  int relays = 0;
  /// Scheduling prior as a fraction of true capacity; <= 0 means oracle.
  double prior_fraction = 0.0;

  friend bool operator==(const SyntheticPopulationSpec&,
                         const SyntheticPopulationSpec&) = default;
};

using PopulationSpec = std::variant<Table1PopulationSpec, ShadowPopulationSpec,
                                    SyntheticPopulationSpec>;

/// Fractions of the population exhibiting the §5 adversarial behaviors;
/// assignment is a deterministic per-relay draw from the scenario seed.
struct AdversaryMix {
  /// TargetBehavior::kLieAboutBackground: report maximal background.
  double liar_fraction = 0.0;
  /// TargetBehavior::kForgeEchoes: fabricate echo responses.
  double forger_fraction = 0.0;

  bool any() const { return liar_fraction > 0.0 || forger_fraction > 0.0; }

  friend bool operator==(const AdversaryMix&, const AdversaryMix&) = default;
};

/// Background-traffic model: per-relay utilization (background demand as a
/// fraction of capacity) drawn from a clamped normal. Disabled by default,
/// keeping the population source's own background (shadow utilizations,
/// table1 background_mbit).
struct BackgroundModel {
  bool enabled = false;
  double utilization_mean = 0.0;
  double utilization_sd = 0.0;

  friend bool operator==(const BackgroundModel&,
                         const BackgroundModel&) = default;
};

/// The measurer team. Empty `measurer_names` selects the population's
/// default team (table1: every Table 1 host except the relay host; shadow:
/// the three built-in 1 Gbit/s measurers; synthetic: hosts created from
/// `capacity_bits`, which is then required).
struct TeamSpec {
  std::vector<std::string> measurer_names;
  /// Per-measurer capacity overrides; empty runs the §4.2 iPerf mesh.
  std::vector<double> capacity_bits;

  friend bool operator==(const TeamSpec&, const TeamSpec&) = default;
};

/// How the materialized topology answers path queries (net/path_model.h).
/// Dense is today's three n x n matrices — exact per-pair control,
/// O(N^2) memory. Tiered is the Shadow-style implicit model — per-host
/// tiers plus a tier x tier RTT table with optional deterministic
/// per-pair jitter — and is what makes 50k-relay synthetic campaigns fit
/// in memory. Tiered currently applies to synthetic populations only
/// (table1/lab paths are individually measured; shadow already installs
/// its own region-tiered model).
struct TopologySpec {
  enum class PathModelKind { kDense, kTiered };
  PathModelKind path_model = PathModelKind::kDense;
  /// Tier count; synthetic hosts default to tier (host id % tiers).
  int tiers = 1;
  /// Upper triangle (incl. diagonal) of the tier x tier RTT table,
  /// seconds; empty means 0.05 s everywhere (the flat-mesh default, so a
  /// 1-tier tiered topology reproduces the dense flat mesh bit-exactly).
  std::vector<double> tier_rtt_s;
  double loss = 1.0e-6;
  double loaded_loss = 5.0e-5;
  /// Per-pair RTT jitter fraction in [0, 1); 0 = exact table values.
  double rtt_jitter = 0.0;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// Timing window of the §3.4 live-network speed test (run_speed_test).
struct SpeedTestWindow {
  int warmup_days = 30;
  int test_duration_hours = 51;
  int cooldown_days = 10;

  friend bool operator==(const SpeedTestWindow&,
                         const SpeedTestWindow&) = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  PopulationSpec population;
  TopologySpec topology;
  TeamSpec team;
  AdversaryMix adversaries;
  BackgroundModel background;
  core::Params params;
  campaign::ScheduleMode schedule = campaign::ScheduleMode::kGreedyPack;
  /// Measurement periods for Experiment; Scenario::run executes one.
  int periods = 1;
  int threads = 1;
  /// Contiguous slots a worker lane claims per dispatch
  /// (campaign::CampaignConfig::shard_slots); <= 0 = auto. Perf knob
  /// only — results are bit-identical for every value.
  int shard_slots = 0;
  std::uint64_t seed = 1;
  /// Attach per-second core::SlotOutcomes to streamed SlotResults.
  bool record_outcomes = false;
  /// Deterministic fault injection (faults.* in scenario files). The
  /// default (all rates zero) is inert: no slot fails and every output
  /// byte is identical to a pre-fault build.
  fault::FaultSpec faults;
  /// Engages the §3.4 archive speed-test experiment (run_speed_test);
  /// slot-based Scenario/Experiment runs reject specs carrying it.
  std::optional<SpeedTestWindow> speedtest;

  /// Validates the spec (params + fractions + population/team coherence);
  /// throws std::invalid_argument.
  void validate() const;

  /// Whole-spec equality (scenario-file round-trip fidelity tests).
  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Fluent spec composition. Every setter returns *this; build() validates.
///
///   auto spec = ScenarioBuilder("fig7")
///                   .table1_relays({250}, /*background_mbit=*/50)
///                   .measurers({"NL"})
///                   .params(params)
///                   .seed(20210607)
///                   .build();
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name = "scenario");

  ScenarioBuilder& table1_relays(std::vector<double> rate_limit_mbit,
                                 double background_mbit = 0.0,
                                 double prior_mbit = 0.0);
  ScenarioBuilder& shadow_net(shadowsim::ShadowNetParams params,
                              std::uint64_t seed);
  ScenarioBuilder& synthetic(analysis::PopulationParams params, int relays,
                             double prior_fraction = 0.0);

  ScenarioBuilder& topology(TopologySpec topology);
  /// Shortcut: tiered path model with `tiers` tiers and default table.
  ScenarioBuilder& tiered_topology(int tiers = 1);
  ScenarioBuilder& speedtest(SpeedTestWindow window);

  ScenarioBuilder& measurers(std::vector<std::string> names);
  ScenarioBuilder& measurer_capacities(std::vector<double> capacity_bits);

  ScenarioBuilder& liars(double fraction);
  ScenarioBuilder& forgers(double fraction);
  ScenarioBuilder& background_utilization(double mean, double sd = 0.0);

  ScenarioBuilder& params(core::Params params);
  ScenarioBuilder& schedule(campaign::ScheduleMode mode);
  ScenarioBuilder& periods(int periods);
  ScenarioBuilder& threads(int threads);
  ScenarioBuilder& shard_slots(int shard_slots);
  ScenarioBuilder& seed(std::uint64_t seed);
  ScenarioBuilder& record_outcomes(bool on = true);
  ScenarioBuilder& faults(fault::FaultSpec faults);

  /// Validates and returns the spec; throws std::invalid_argument.
  ScenarioSpec build() const;

 private:
  ScenarioSpec spec_;
};

/// A spec turned into concrete simulation objects: an owned topology, the
/// campaign population (behaviors and priors applied), and the resolved
/// measurer hosts.
struct MaterializedScenario {
  net::Topology topology;
  std::vector<campaign::CampaignRelay> relays;
  std::vector<net::HostId> measurer_hosts;
  /// Capacity overrides aligned with measurer_hosts (empty: iPerf mesh).
  std::vector<double> measurer_capacity_bits;
  /// Relay fingerprints, aligned with `relays` (bandwidth-file emission).
  std::vector<std::string> fingerprints;
};

/// Schedule-only dry run: how would this population pack into a period?
/// Computed without materializing a topology, so it scales to full-network
/// populations (§7's 6,419 relays) whose dense path matrices would not fit
/// in memory. Requires team capacity overrides in the spec.
struct PlanResult {
  int relays = 0;
  double total_prior_bits = 0.0;
  double team_capacity_bits = 0.0;
  /// f * z0 summed over the population.
  double total_requirement_bits = 0.0;
  /// kGreedyPack: slots_used == slots_in_period == the packing length.
  /// kRandomized: slots_in_period is the whole period, slots_used the
  /// number of occupied slots.
  int slots_in_period = 0;
  int slots_used = 0;
  /// Back-to-back measurement time (greedy) or the full period span.
  double simulated_seconds = 0.0;
};

/// A materialized, runnable scenario: one measurement period.
/// Materialization and team resolution happen lazily, so plan() never
/// builds a topology. Not copyable (the campaign runner holds references
/// into the materialization).
class Scenario {
 public:
  explicit Scenario(ScenarioSpec spec);  // validates
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioSpec& spec() const { return spec_; }

  /// Lays the population out into slots without running any measurement.
  PlanResult plan() const;

  /// Streams one period through `sink` (campaign::CampaignRunner::run).
  campaign::RunStats run(campaign::SlotSink& sink) const;
  /// Batch convenience: one period, aggregated in memory.
  campaign::CampaignResult run() const;

  const MaterializedScenario& materialized() const;
  const campaign::CampaignRunner& runner() const;

  /// Attaches a telemetry recorder (borrowed; must outlive every run).
  /// Call before the first run()/runner() — the campaign config is built
  /// lazily and snapshots the pointer. Null (the default) keeps every
  /// instrumentation site skipped.
  void set_telemetry(telemetry::Recorder* recorder) { telemetry_ = recorder; }

  /// The scheduling priors z0 this scenario starts from, aligned with the
  /// population (what plan() packs and period 0 allocates by). Computed
  /// once, without materializing a topology.
  const std::vector<double>& prior_capacities() const;

 private:
  ScenarioSpec spec_;
  mutable std::unique_ptr<MaterializedScenario> materialized_;
  mutable std::unique_ptr<campaign::CampaignRunner> runner_;
  mutable std::unique_ptr<std::vector<double>> priors_;
  telemetry::Recorder* telemetry_ = nullptr;
};

/// Materializes a spec into topology + population (exposed for callers
/// that drive the campaign engine directly).
MaterializedScenario materialize(const ScenarioSpec& spec);

/// Resolves the team's per-measurer capacities: the spec's overrides, or
/// the §4.2 iPerf mesh over the materialized topology. Deterministic in
/// the spec alone (the mesh seed is derived from spec.seed, not from any
/// period), so Scenario and Experiment agree on the team.
std::vector<double> resolve_team_capacities(const ScenarioSpec& spec,
                                            const MaterializedScenario& mat);

/// The campaign seed for one measurement period of a scenario: period 0 is
/// what Scenario::run uses; Experiment advances through periods 0..n-1.
/// Deterministic, and distinct across periods so every period draws a
/// fresh secret schedule (§4.3).
std::uint64_t period_seed(const ScenarioSpec& spec, int period);

/// The one spec → campaign config mapping Scenario and Experiment share:
/// the team at `team_caps` (resolve_team_capacities), period_seed(spec,
/// period), and `recorder` (borrowed; null skips telemetry).
campaign::CampaignConfig campaign_config(
    const ScenarioSpec& spec, const MaterializedScenario& mat,
    std::vector<double> team_caps, int period, telemetry::Recorder* recorder);

/// The §3.4 relay speed-test experiment (Fig 5) over a scenario's
/// synthetic population: floods every live relay to capacity for the test
/// window and tracks the observed-bandwidth capacity proxy and TorFlow
/// weight error around it. The window comes from spec.speedtest
/// (defaults apply when absent). Requires a SyntheticPopulationSpec (the
/// experiment runs on the §3 archive machinery, not on measurement
/// slots); the spec's relay count seeds the initial live population.
/// Spec fields the archive experiment cannot honor (adversary mix,
/// background model, team, topology, periods, record_outcomes,
/// prior_fraction) are rejected with std::invalid_argument rather than
/// silently dropped.
analysis::SpeedTestResult run_speed_test(const ScenarioSpec& spec);

}  // namespace flashflow::scenario
