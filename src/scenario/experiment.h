// Multi-period measurement experiments (§4.3's feedback loop).
//
// Experiment is how a slot-based ScenarioSpec runs; scenario::plan
// (scenario.h) is its dry run. FlashFlow measures every relay once per
// period, and this period's estimates become next period's
// scheduling/allocation priors z0. The batch campaign engine runs one
// period; Experiment drives the loop:
//
//   priors(0) = population priors (advertised bandwidth, configured z0,
//               or the oracle)
//   for p in 0..periods-1:
//     result(p) = campaign over priors(p) with a fresh secret schedule
//     priors(p+1) = estimates from result(p) (accepted relays only)
//
// so a population whose priors start badly wrong converges: the §4.2
// allocation grants f * z0 ≈ 2.95 z0, which lets an underestimated relay's
// estimate grow geometrically period over period until it reaches true
// capacity.
//
// At each period end the results can be emitted as a Tor bandwidth file
// (tor/bandwidth_file.h) — the artifact a production BWAuth hands to the
// DirAuths once per period.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "scenario/scenario.h"
#include "tor/bandwidth_file.h"

namespace flashflow::scenario {

class Experiment {
 public:
  /// Validates and materializes the spec. spec.periods controls how many
  /// periods run() executes.
  explicit Experiment(ScenarioSpec spec);
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  struct PeriodRecord {
    int period = 0;
    campaign::CampaignSummary summary;
    campaign::RunStats stats;
  };

  struct Result {
    /// One record per started period; a cancelled period's record is last
    /// (its stats.cancelled is set) and covers only the delivered slots.
    std::vector<PeriodRecord> periods;
    /// Full per-relay results of the last *completed* period. Default
    /// (empty relays) when the very first period was cancelled — check
    /// `cancelled` before relying on it.
    campaign::CampaignResult final_period;
    /// True when a sink cancelled mid-experiment; later periods were
    /// skipped.
    bool cancelled = false;
  };

  /// Observer called after each period with its record and full results.
  using PeriodHook = std::function<void(const PeriodRecord& record,
                                        const campaign::CampaignResult&)>;

  /// Runs every period, feeding estimates forward as priors. When `sink`
  /// is non-null each period's slots additionally stream through it (its
  /// begin() fires once per period; CsvSink/JsonlSink tag rows with the
  /// period index). Deterministic in the spec and independent of
  /// spec.threads, including the streamed bytes.
  Result run(campaign::SlotSink* sink = nullptr,
             const PeriodHook& hook = {});

  /// One period's results as a FlashFlow bandwidth file: weight ==
  /// capacity (Table 2: FlashFlow publishes true capacity values), keyed
  /// by relay name. A relay whose capacity is <= 0 (e.g. one that failed
  /// verification) is omitted, as a BWAuth refuses to vouch for it.
  /// Throws std::invalid_argument when `period_result` is not aligned
  /// with the materialized relays.
  tor::BandwidthFile bandwidth_file(
      const campaign::CampaignResult& period_result) const;

  /// Serialized bandwidth file, timestamped at the period's end.
  std::string bandwidth_file_text(
      int period, const campaign::CampaignResult& period_result) const;

  const ScenarioSpec& spec() const { return spec_; }
  const MaterializedScenario& materialized() const { return materialized_; }
  /// Resolved per-measurer capacities (override or iPerf mesh), shared by
  /// every period.
  const std::vector<double>& measurer_capacities() const {
    return measurer_caps_;
  }

  /// Attaches a telemetry recorder (borrowed; must outlive run()). Every
  /// period's campaign shares it: the recorder's shards accumulate across
  /// periods. Null (the default) keeps every instrumentation site skipped.
  void set_telemetry(telemetry::Recorder* recorder) { telemetry_ = recorder; }

 private:
  ScenarioSpec spec_;
  MaterializedScenario materialized_;
  std::vector<double> measurer_caps_;
  telemetry::Recorder* telemetry_ = nullptr;
};

}  // namespace flashflow::scenario
