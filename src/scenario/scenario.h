// Declarative experiment scenarios over the streaming campaign engine.
//
// A ScenarioSpec describes one slot-based measurement run: a relay
// population source, an adversary mix, a background-traffic model, a
// measurer team, a schedule mode and a period count — without any of the
// topology/allocation wiring the bench binaries used to hand-roll. A spec
// is a plain aggregate, written with designated initializers or parsed
// from a scenario file (serialize.h); materialize() turns one into a
// topology + campaign population. The §3 archive analyses (Figs 1–5, 10)
// are not slot runs and call analysis/ directly.
// scenario::Experiment (experiment.h) runs a spec: every period through
// campaign::CampaignRunner, with the §4.3 prior feedback between them.
// plan() is its dry run: period 0's priors and slot layout, computed by
// the same campaign functions the run calls, without measuring anything.
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
//
// Spec members with no default value carry an empty `{}` initializer, so a
// designated initializer may leave them out without tripping GCC's
// -Wmissing-field-initializers.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/population.h"
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
  std::vector<double> rate_limit_mbit{};
  std::string relay_host = "US-SW";
  /// Offered client (background) traffic per relay.
  double background_mbit = 0.0;
  /// Scheduling prior z0 per relay; 0 means oracle prior.
  double prior_mbit = 0.0;

  friend bool operator==(const Table1PopulationSpec&,
                         const Table1PopulationSpec&) = default;
};

/// The §7 Shadow-style private Tor network: ~328 relays with advertised
/// bandwidths as scheduling priors and utilization-driven background.
struct ShadowPopulationSpec {
  shadowsim::ShadowNetParams params{};
  std::uint64_t seed = 11;

  friend bool operator==(const ShadowPopulationSpec&,
                         const ShadowPopulationSpec&) = default;
};

/// Capacities sampled from the §3 population mixture (analysis::
/// sample_capacities reads only its μ, σ and the two clamps); relays are
/// placed on synthetic hosts on the spec's TopologySpec tiers. Used for
/// scale and scheduling studies (e.g. the §7 efficiency numbers).
struct SyntheticPopulationSpec {
  analysis::PopulationParams params{};
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
/// table1 background_mbit); validate() rejects utilization values while
/// it is disabled.
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
/// `capacity_bits`, which is then required). Names must be distinct: the
/// §4.2 mesh gives every listed measurer its own NICs.
struct TeamSpec {
  std::vector<std::string> measurer_names{};
  /// Per-measurer capacity overrides; empty runs the §4.2 iPerf mesh.
  std::vector<double> capacity_bits{};

  friend bool operator==(const TeamSpec&, const TeamSpec&) = default;
};

/// A synthetic population's path model (net/path_model.h): hosts on
/// tiers, a tier x tier RTT table, network-wide clean and loaded loss,
/// and optional deterministic per-pair RTT jitter. The default is the
/// flat mesh: one tier, 0.05 s between any two hosts. Table 1 and shadow
/// populations bring their own tables, so validate() refuses a
/// non-default TopologySpec for them.
struct TopologySpec {
  /// Tier count; synthetic hosts default to tier (host id % tiers).
  int tiers = 1;
  /// Upper triangle (incl. diagonal) of the tier x tier RTT table,
  /// seconds; required when tiers > 1. Empty at one tier means 0.05 s.
  std::vector<double> tier_rtt_s{};
  double loss = 1.0e-6;
  double loaded_loss = 5.0e-5;
  /// Per-pair RTT jitter fraction in [0, 1); 0 = exact table values.
  double rtt_jitter = 0.0;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  PopulationSpec population{};
  TopologySpec topology{};
  TeamSpec team{};
  AdversaryMix adversaries{};
  BackgroundModel background{};
  core::Params params{};
  campaign::ScheduleMode schedule = campaign::ScheduleMode::kGreedyPack;
  /// Measurement periods Experiment::run executes; plan() lays out the
  /// first.
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
  fault::FaultSpec faults{};

  /// Validates the spec (params + fractions + population/team coherence);
  /// throws std::invalid_argument.
  void validate() const;

  /// Whole-spec equality (scenario-file round-trip fidelity tests).
  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// A spec turned into concrete simulation objects: an owned topology, the
/// campaign population (behaviors and priors applied), and the resolved
/// measurer hosts.
struct MaterializedScenario {
  net::Topology topology;
  std::vector<campaign::CampaignRelay> relays{};
  std::vector<net::HostId> measurer_hosts{};
  /// Capacity overrides aligned with measurer_hosts (empty: iPerf mesh).
  std::vector<double> measurer_capacity_bits{};
};

/// Schedule-only dry run: how period 0 of a spec's run lays out.
struct PlanResult {
  int relays = 0;
  /// The scheduling priors z0 the layout packs, aligned with the
  /// materialized population (campaign::scheduling_priors).
  std::vector<double> priors;
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

/// Materializes a spec into topology + population (exposed for callers
/// that drive the campaign engine directly). Validates the spec first.
MaterializedScenario materialize(const ScenarioSpec& spec);

/// Lays out period 0 of the spec's run without measuring anything: the
/// priors and layout come from campaign::scheduling_priors and
/// campaign::lay_out_period, the functions CampaignRunner::run calls, on
/// the materialized population and resolved team.
PlanResult plan(const ScenarioSpec& spec);

/// Resolves the team's per-measurer capacities: the spec's overrides, or
/// the §4.2 iPerf mesh over the materialized topology. Deterministic in
/// the spec alone (the mesh seed is derived from spec.seed, not from any
/// period), so plan() and every period of a run agree on the team.
std::vector<double> resolve_team_capacities(const ScenarioSpec& spec,
                                            const MaterializedScenario& mat);

/// The campaign seed for one measurement period of a scenario: Experiment
/// advances through periods 0..n-1, and plan() lays out period 0.
/// Deterministic, and distinct across periods so every period draws a
/// fresh secret schedule (§4.3).
std::uint64_t period_seed(const ScenarioSpec& spec, int period);

}  // namespace flashflow::scenario
