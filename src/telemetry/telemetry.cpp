#include "telemetry/telemetry.h"

#include <algorithm>
#include <ostream>

namespace flashflow::telemetry {

std::string_view stage_name(Stage stage) {
  switch (stage) {
    case Stage::kLayout: return "layout";
    case Stage::kDispatch: return "dispatch";
    case Stage::kFillPaths: return "fill_paths";
    case Stage::kSolverPrepare: return "solver_prepare";
    case Stage::kSolverSolve: return "solver_solve";
    case Stage::kReorderWait: return "reorder_wait";
    case Stage::kSinkSerialize: return "sink_serialize";
    case Stage::kRetryRound: return "retry_round";
    case Stage::kSlotSetup: return "slot_setup";
    case Stage::kAggregate: return "aggregate";
  }
  return "unknown";
}

void LaneShard::merge_into(LaneShard& into) const {
  for (std::size_t i = 0; i < counters_.size(); ++i)
    into.counters_[i] += counters_[i];
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    if (gauges_[i] > into.gauges_[i]) into.gauges_[i] = gauges_[i];
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    HistogramData& h = into.hists_[i];
    const HistogramData& from = hists_[i];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      h.buckets[b] += from.buckets[b];
    h.count += from.count;
    h.sum += from.sum;
  }
}

void SlotProbe::finish_slot(std::size_t slot_relays) {
  shard_->add(metrics_->slots);
  shard_->add(metrics_->relays, slot_relays);
  shard_->observe(metrics_->segments_hist,
                  static_cast<std::uint64_t>(segments_));
  shard_->observe(metrics_->slot_relays_hist,
                  static_cast<std::uint64_t>(slot_relays));
  const auto stage = [&](Stage s) {
    return metrics_->stage_hist[static_cast<std::size_t>(s)];
  };
  shard_->observe(stage(Stage::kDispatch), timing_.dispatch_micros);
  shard_->observe(stage(Stage::kFillPaths), timing_.fill_paths_micros);
  shard_->observe(stage(Stage::kSolverPrepare), timing_.prepare_micros);
  shard_->observe(stage(Stage::kSolverSolve), timing_.solve_micros);
  shard_->observe(stage(Stage::kReorderWait), timing_.reorder_micros);
  shard_->observe(stage(Stage::kSlotSetup), timing_.slot_setup_micros);
  shard_->observe(stage(Stage::kAggregate), timing_.aggregate_micros);
}

Recorder::Recorder(const Clock* clock)
    : clock_(clock != nullptr ? clock : &monotonic_clock()) {}

void Recorder::begin_run(std::size_t lanes) {
  lanes_.assign(lanes, LaneShard{});
  serial_ = LaneShard{};
}

void Recorder::end_run() {
  for (const LaneShard& shard : lanes_) shard.merge_into(merged_);
  serial_.merge_into(merged_);
  lanes_.clear();
  serial_ = LaneShard{};
}

namespace {

template <typename Name, typename T, std::size_t N>
std::vector<std::pair<std::string, T>> sorted_by_name(
    const std::array<Name, N>& names, const std::array<T, N>& values) {
  std::vector<std::pair<std::string, T>> out;
  out.reserve(N);
  for (std::size_t i = 0; i < N; ++i)
    out.emplace_back(std::string(names[i]), values[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

Snapshot Recorder::snapshot() const {
  // Names in EngineMetrics id order.
  static constexpr std::array<std::string_view, EngineMetrics::kCounters>
      kCounterNames = {"campaign/slots",        "campaign/relays",
                       "campaign/retry_rounds", "campaign/trace_slots",
                       "solver/prepare_calls",  "solver/solve_seconds",
                       "solver/fill_steps",     "solver/exact_quotients",
                       "paths/fill_calls"};
  static constexpr std::array<std::string_view, EngineMetrics::kGauges>
      kGaugeNames = {"solver/active_flows"};
  std::array<std::string, EngineMetrics::kHistograms> histogram_names;
  histogram_names[engine_.segments_hist] = "slot/segments";
  histogram_names[engine_.slot_relays_hist] = "slot/relays";
  for (int s = 0; s < kStageCount; ++s) {
    std::string& name =
        histogram_names[engine_.stage_hist[static_cast<std::size_t>(s)]];
    name = "stage/";
    name += stage_name(static_cast<Stage>(s));
  }

  Snapshot snap;
  snap.counters = sorted_by_name(kCounterNames, merged_.counters_);
  snap.gauges = sorted_by_name(kGaugeNames, merged_.gauges_);
  snap.histograms = sorted_by_name(histogram_names, merged_.hists_);
  return snap;
}

void Recorder::write_metrics(std::ostream& out) const {
  const Snapshot snap = snapshot();
  out << "{\n  \"flashflow_metrics\": 1,\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i)
    out << (i ? ",\n    " : "\n    ") << "\"" << snap.counters[i].first
        << "\": " << snap.counters[i].second;
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i)
    out << (i ? ",\n    " : "\n    ") << "\"" << snap.gauges[i].first
        << "\": " << snap.gauges[i].second;
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    out << (i ? ",\n    " : "\n    ") << "\"" << name
        << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      out << h.buckets[b] << (b + 1 < kHistogramBuckets ? ", " : "");
    out << "]}";
  }
  out << "\n  }\n}\n";
}

}  // namespace flashflow::telemetry
