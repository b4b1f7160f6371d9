#include "scenario/experiment.h"

#include <algorithm>
#include <utility>

#include "campaign/sink.h"
#include "sim/time.h"

namespace flashflow::scenario {

namespace {

/// Forwards one period's stream to both the aggregating sink and an
/// optional user sink. Cancellation from either side stops the run.
class TeeSink : public campaign::SlotSink {
 public:
  TeeSink(campaign::SlotSink& first, campaign::SlotSink* second)
      : first_(first), second_(second) {}

  void begin(const campaign::RunPlan& plan) override {
    first_.begin(plan);
    if (second_) second_->begin(plan);
  }
  void slot_done(const campaign::SlotResult& slot) override {
    first_.slot_done(slot);
    if (second_) second_->slot_done(slot);
  }
  bool on_progress(int slots_done, int slots_total) override {
    bool keep = first_.on_progress(slots_done, slots_total);
    if (second_) keep = second_->on_progress(slots_done, slots_total) && keep;
    return keep;
  }

 private:
  campaign::SlotSink& first_;
  campaign::SlotSink* second_;
};

}  // namespace

Experiment::Experiment(ScenarioSpec spec)
    : spec_(std::move(spec)),
      materialized_(materialize(spec_)),
      // Resolved once — §4.2 measures the measurers when the spec carries
      // no capacity overrides — so every period reuses the same estimates
      // instead of re-running the mesh with each period's seed, and a
      // 1-period Experiment agrees exactly with Scenario::run().
      measurer_caps_(resolve_team_capacities(spec_, materialized_)) {}

Experiment::Result Experiment::run(campaign::SlotSink* sink,
                                   const PeriodHook& hook) {
  Result result;
  std::vector<campaign::CampaignRelay> relays = materialized_.relays;

  // Largest prior the team can schedule: f * z0 must fit in one slot.
  // Estimates can overshoot true capacity by a few percent (per-slot
  // noise), so feeding them forward unclamped could make a maximal relay
  // unschedulable next period; a real BWAuth saturates its team instead
  // (§4.2 team_saturated).
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
    TeeSink tee(aggregate, sink);
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
  std::vector<double> capacities;
  capacities.reserve(period_result.relays.size());
  for (const campaign::RelayEstimate& est : period_result.relays)
    capacities.push_back(est.verification_failed ? 0.0 : est.estimate_bits);
  return tor::make_flashflow_entries(materialized_.fingerprints, capacities);
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
