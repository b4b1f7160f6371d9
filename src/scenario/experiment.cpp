#include "scenario/experiment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "campaign/sink.h"
#include "sim/time.h"

namespace flashflow::scenario {

namespace {

/// One period's campaign config: the team at `team_caps`,
/// period_seed(spec, period), and `recorder` (borrowed; null skips
/// telemetry).
campaign::CampaignConfig campaign_config(
    const ScenarioSpec& spec, const MaterializedScenario& mat,
    const std::vector<double>& team_caps, int period,
    telemetry::Recorder* recorder) {
  campaign::CampaignConfig config;
  config.params = spec.params;
  config.measurer_hosts = mat.measurer_hosts;
  config.measurer_capacity_bits = team_caps;
  config.schedule = spec.schedule;
  config.threads = spec.threads;
  config.shard_slots = spec.shard_slots;
  config.seed = period_seed(spec, period);
  config.record_outcomes = spec.record_outcomes;
  config.faults = spec.faults;
  config.telemetry = recorder;
  return config;
}

}  // namespace

Experiment::Experiment(ScenarioSpec spec)
    : spec_(std::move(spec)),
      materialized_(materialize(spec_)),
      // Resolved once — §4.2 measures the measurers when the spec carries
      // no capacity overrides — so every period reuses the same estimates
      // instead of re-running the mesh with each period's seed, and plan()
      // lays period 0 out against the same team.
      measurer_caps_(resolve_team_capacities(spec_, materialized_)) {}

Experiment::Result Experiment::run(campaign::SlotSink* sink,
                                   const PeriodHook& hook) {
  Result result;
  std::vector<campaign::CampaignRelay> relays = materialized_.relays;

  // Largest prior the team can schedule: f * z0 must fit in one slot.
  // Estimates can overshoot true capacity by a few percent (per-slot
  // noise), so feeding them forward unclamped could make a maximal relay
  // unschedulable next period; a real BWAuth saturates its team instead
  // (§4.2).
  double team_capacity = 0.0;
  for (const double c : measurer_caps_) team_capacity += c;
  const double max_prior =
      team_capacity / spec_.params.excess_factor() * (1.0 - 1e-9);

  for (int period = 0; period < spec_.periods; ++period) {
    const campaign::CampaignRunner runner(
        materialized_.topology,
        campaign_config(spec_, materialized_, measurer_caps_, period,
                        telemetry_));

    campaign::AggregatingSink aggregate;
    campaign::FanoutSink tee{&aggregate, sink};
    const campaign::RunStats stats = runner.run(relays, tee);
    campaign::CampaignResult period_result =
        std::move(aggregate).result(stats);

    PeriodRecord record;
    record.period = period;
    record.summary = period_result.summary;
    record.stats = stats;
    result.periods.push_back(record);
    if (hook) hook(record, period_result);

    if (stats.cancelled) {
      // A cancelled period measured only part of the population: keep its
      // record (the hook already observed it; stats.cancelled marks it)
      // but don't feed partial estimates forward or overwrite
      // final_period, which stays at the last *completed* period.
      result.cancelled = true;
      break;
    }

    // §4.3 feedback: this period's accepted estimates become next
    // period's priors. Failed (including quarantined) and unmeasured
    // relays keep their old prior rather than dropping to zero — a relay
    // that missed a period through benign faults must stay schedulable
    // next period at its last known size.
    for (std::size_t i = 0; i < relays.size(); ++i) {
      const campaign::RelayEstimate& est = period_result.relays[i];
      if (!est.verification_failed && !est.slot_failed &&
          est.estimate_bits > 0.0)
        relays[i].prior_estimate_bits =
            std::min(est.estimate_bits, max_prior);
    }
    result.final_period = std::move(period_result);
  }
  return result;
}

tor::BandwidthFile Experiment::bandwidth_file(
    const campaign::CampaignResult& period_result) const {
  const std::vector<campaign::CampaignRelay>& relays = materialized_.relays;
  if (period_result.relays.size() != relays.size())
    throw std::invalid_argument(
        "Experiment::bandwidth_file: results misaligned with the population");
  tor::BandwidthFile entries;
  entries.reserve(relays.size());
  for (std::size_t i = 0; i < relays.size(); ++i) {
    const campaign::RelayEstimate& est = period_result.relays[i];
    const double capacity = est.verification_failed ? 0.0 : est.estimate_bits;
    if (capacity <= 0.0) continue;
    entries.push_back({relays[i].model.name, capacity, capacity});
  }
  return entries;
}

std::string Experiment::bandwidth_file_text(
    int period, const campaign::CampaignResult& period_result) const {
  tor::BandwidthFileHeader header;
  header.timestamp = static_cast<std::int64_t>(
      sim::to_seconds(spec_.params.period) * (period + 1));
  return tor::serialize_bandwidth_file(header,
                                       bandwidth_file(period_result));
}

}  // namespace flashflow::scenario
