// Full-network measurement campaigns (§4.3, §7).
//
// A campaign measures an entire relay population over one period: the
// scheduler lays the relays out into 30-second slots (either the §7
// greedy largest-fit packing that minimizes total measurement time, or the
// §4.3 secret randomized period schedule), then every slot runs the §4.1
// slot pipeline against its relays with a team allocation computed by the
// §4.2 greedy allocator.
//
// Slots are independent, so the engine executes them on a fixed-size
// thread pool. Each slot forks its own RNG from the period seed
// (sub-seed = period_seed XOR slot index) and writes only its own relays'
// results, which makes a campaign's output bit-identical regardless of the
// thread count — the property every scale experiment on top of this
// subsystem relies on.
//
// Results stream: run(relays, sink) delivers each slot's estimates to a
// SlotSink as slots complete. Completed slots are re-ordered so the sink
// always observes increasing slot indices, which makes the streamed byte
// stream (CSV, JSONL, …) — not just the aggregate — independent of the
// thread count. The batch run(relays) overload is a thin wrapper over an
// in-memory aggregating sink (campaign/sink.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/measurement.h"
#include "core/params.h"
#include "fault/fault.h"
#include "net/topology.h"
#include "telemetry/telemetry.h"
#include "tor/relay.h"

namespace flashflow::campaign {

/// One relay in the measured population.
struct CampaignRelay {
  tor::RelayModel model;
  net::HostId host = 0;
  /// Prior capacity guess z0 for scheduling/allocation (§4.2). <= 0 means
  /// "oracle prior": use the relay's Tor ground truth at the configured
  /// socket count.
  double prior_estimate_bits = 0.0;
  core::TargetBehavior behavior = core::TargetBehavior::kHonest;
};

enum class ScheduleMode {
  /// §7 largest-fit packing: minimum slots, measured back to back.
  kGreedyPack,
  /// §4.3 randomized secret schedule across the whole period.
  kRandomized,
};

struct CampaignConfig {
  core::Params params;
  /// Measurer team (hosts must exist in the topology).
  std::vector<net::HostId> measurer_hosts;
  /// Per-measurer capacity overrides aligned with `measurer_hosts` (lab
  /// configs with known limits). Empty: run the §4.2 iPerf mesh.
  std::vector<double> measurer_capacity_bits;
  ScheduleMode schedule = ScheduleMode::kGreedyPack;
  /// Worker threads for slot execution; <= 0 selects hardware concurrency.
  int threads = 1;
  /// Contiguous slots a worker lane claims per trip to the shared
  /// dispatch counter; <= 0 picks a size from the slot and lane counts
  /// (ThreadPool::default_shard). Purely a performance knob: results are
  /// bit-identical for every shard size.
  int shard_slots = 0;
  /// Period seed; every slot derives its sub-seed from this.
  std::uint64_t seed = 1;
  /// Attach the full per-second core::SlotOutcome to every streamed
  /// SlotResult (timeline experiments). Off by default: outcomes hold four
  /// per-second series per relay, which adds up over a large population.
  bool record_outcomes = false;
  /// Deterministic fault injection (fault::FaultPlan keyed by `seed`).
  /// All-zero rates (the default) make the plan inert: every slot keeps
  /// its full evidence (quality 1.0) and nothing is retried.
  fault::FaultSpec faults;
  /// Optional telemetry session (borrowed; must outlive the run). Null —
  /// the default — skips every instrumentation site: no clock reads
  /// beyond the two RunStats::wall_seconds endpoints, no shard writes,
  /// and byte-identical results either way (the golden suite pins both).
  /// With Recorder::enable_trace() each streamed SlotResult additionally
  /// carries a telemetry::SlotTrace.
  telemetry::Recorder* telemetry = nullptr;
};

/// Per-relay campaign outcome, aligned with the input population.
struct RelayEstimate {
  int slot = -1;
  double estimate_bits = 0.0;
  double ground_truth_bits = 0.0;
  /// estimate / ground truth - 1; 0 when the ground truth is 0 or the
  /// relay failed verification.
  double relative_error = 0.0;
  bool verification_failed = false;
  /// Evidence quality of the winning attempt (core::SlotOutcome::quality);
  /// 1.0 for a fault-free measurement, < 1.0 when the estimate came from
  /// degraded evidence.
  double quality = 1.0;
  /// Retry round that produced this estimate (0 = first attempt).
  int attempt = 0;
  /// The final attempt produced no usable estimate (estimate_bits == 0).
  /// Distinct from verification_failed, which is a security outcome and is
  /// never retried.
  bool slot_failed = false;
  /// Failed on every attempt up to FaultSpec::max_retries: the relay is
  /// benched until the next period (which starts it fresh).
  bool quarantined = false;

  friend bool operator==(const RelayEstimate&, const RelayEstimate&) = default;
};

/// Deterministic period summary. Wall-clock timing lives in RunStats, not
/// here, so two runs of the same campaign compare equal as whole structs.
struct CampaignSummary {
  /// Relays whose slot actually ran and was delivered — equals the
  /// population size unless the run was cancelled.
  int relays_measured = 0;
  int verification_failures = 0;
  /// Slots laid out by the scheduler (kRandomized counts the whole period).
  int slots_in_period = 0;
  /// Non-empty slots actually executed.
  int slots_executed = 0;
  /// Simulated measurement time: last occupied slot's end, seconds.
  double simulated_seconds = 0.0;
  /// Error aggregates over relays that passed verification, |z/x - 1|.
  double mean_abs_relative_error = 0.0;
  double median_abs_relative_error = 0.0;
  double max_abs_relative_error = 0.0;
  double total_true_bits = 0.0;
  double total_estimated_bits = 0.0;
  /// Fault accounting (all zero on a fault-free run).
  /// Relays whose final attempt still failed (includes the quarantined).
  int relays_failed = 0;
  /// Relays that needed at least one retry (whether or not it succeeded).
  int relays_retried = 0;
  /// Relays that exhausted the retry budget.
  int relays_quarantined = 0;
  /// Relays measured successfully but from degraded evidence (quality < 1).
  int relays_degraded = 0;

  friend bool operator==(const CampaignSummary&,
                         const CampaignSummary&) = default;
};

struct CampaignResult {
  std::vector<RelayEstimate> relays;
  CampaignSummary summary;

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

/// What a sink learns before the first slot runs.
struct RunPlan {
  int relays = 0;
  int slots_in_period = 0;
  /// Occupied slots that will execute (and be delivered) in the first
  /// round; retry rounds add more deliveries after this.
  int slots_to_execute = 0;
  double team_capacity_bits = 0.0;
  /// Fault injection is armed: sinks that serialize estimates append the
  /// fault columns only in this case, keeping fault-free byte streams
  /// identical to pre-fault builds.
  bool faults_enabled = false;
};

/// One completed slot: the estimates of every relay measured in it.
struct SlotResult {
  int slot = -1;
  /// Indices into the input population, aligned with `estimates`.
  std::vector<std::size_t> relay_indices;
  std::vector<RelayEstimate> estimates;
  /// Full per-second slot outcomes aligned with `relay_indices`; filled
  /// only when CampaignConfig::record_outcomes is set.
  std::vector<core::SlotOutcome> outcomes;
  /// Per-slot execution trace; present only when the run's telemetry
  /// recorder has tracing enabled. Timing/lane/shard fields are
  /// wall-clock- and thread-dependent; everything else is deterministic.
  std::optional<telemetry::SlotTrace> trace;
};

/// Execution timing and progress counters for one streamed run. This is
/// where wall-clock time lives — deliberately outside CampaignSummary so
/// campaign results stay comparable across runs and machines.
struct RunStats {
  int slots_in_period = 0;
  /// Slots delivered to the sink.
  int slots_executed = 0;
  /// Occupied slots skipped because the sink cancelled the run (counted
  /// against everything scheduled, retry rounds included):
  /// slots_executed + slots_skipped == slots scheduled overall.
  int slots_skipped = 0;
  /// Executed slots in which at least one relay's measurement failed.
  int slots_failed = 0;
  /// Retry slots executed (rounds after the first).
  int slots_retried = 0;
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;
  bool cancelled = false;
};

/// Streaming consumer of campaign results. Delivery is serialized and in
/// increasing slot order within each retry round regardless of the thread
/// count (fault-free runs have exactly one round, hence globally increasing
/// slot order), so anything a sink writes is bit-identical across runs with
/// different `threads`.
class SlotSink {
 public:
  virtual ~SlotSink() = default;

  /// Called once, before any slot executes.
  virtual void begin(const RunPlan& plan) { (void)plan; }

  /// Called once per occupied slot, in increasing slot order.
  virtual void slot_done(const SlotResult& slot) = 0;

  /// Progress/cancellation hook, called after each delivery. Returning
  /// false cancels the remaining slots: workers stop claiming work and no
  /// further slot_done call is made. `slots_total` covers everything
  /// scheduled so far and grows when retry rounds add slots.
  virtual bool on_progress(int slots_done, int slots_total) {
    (void)slots_done;
    (void)slots_total;
    return true;
  }
};

class CampaignRunner {
 public:
  /// Resolves the team's capacities up front (override or iPerf mesh), so
  /// repeated runs reuse the same measurer estimates. Validates
  /// `config.params` and `config.faults` against the slot length.
  CampaignRunner(const net::Topology& topo, CampaignConfig config);

  /// Streams the whole population through `sink`, one delivery per
  /// occupied slot. Deterministic in (population, config, seed);
  /// independent of `threads`. Returns timing/progress stats — the only
  /// nondeterministic outputs of a run.
  RunStats run(std::span<const CampaignRelay> relays, SlotSink& sink) const;

  /// Batch convenience: aggregates the stream into a CampaignResult
  /// (campaign/sink.h AggregatingSink). Use the streaming overload to
  /// recover wall-clock timing.
  CampaignResult run(std::span<const CampaignRelay> relays) const;

  const std::vector<double>& measurer_capacities() const {
    return measurer_caps_;
  }
  double team_capacity_bits() const;

 private:
  const net::Topology& topo_;
  CampaignConfig config_;
  std::vector<double> measurer_caps_;
  std::vector<int> measurer_cores_;
};

}  // namespace flashflow::campaign
