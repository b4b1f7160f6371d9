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

MetricId Registry::intern(std::vector<std::string>& names,
                          std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  names.emplace_back(name);
  return names.size() - 1;
}

MetricId Registry::counter(std::string_view name) {
  return intern(counters_, name);
}
MetricId Registry::gauge(std::string_view name) {
  return intern(gauges_, name);
}
MetricId Registry::histogram(std::string_view name) {
  return intern(hists_, name);
}

void LaneShard::resize_for(const Registry& registry) {
  counters_.assign(registry.counter_names().size(), 0);
  gauges_.assign(registry.gauge_names().size(), 0.0);
  hists_.assign(registry.histogram_names().size(), HistogramData{});
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

EngineMetrics EngineMetrics::register_in(Registry& registry) {
  EngineMetrics m;
  m.slots = registry.counter("campaign/slots");
  m.relays = registry.counter("campaign/relays");
  m.retry_rounds = registry.counter("campaign/retry_rounds");
  m.trace_rows = registry.counter("campaign/trace_slots");
  m.prepare_calls = registry.counter("solver/prepare_calls");
  m.solve_seconds = registry.counter("solver/solve_seconds");
  m.fill_steps = registry.counter("solver/fill_steps");
  m.exact_quotients = registry.counter("solver/exact_quotients");
  m.fill_calls = registry.counter("paths/fill_calls");
  m.active_flows = registry.gauge("solver/active_flows");
  m.segments_hist = registry.histogram("slot/segments");
  m.slot_relays_hist = registry.histogram("slot/relays");
  for (int s = 0; s < kStageCount; ++s)
    m.stage_hist[static_cast<std::size_t>(s)] = registry.histogram(
        "stage/" + std::string(stage_name(static_cast<Stage>(s))));
  return m;
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
    : clock_(clock != nullptr ? clock : &monotonic_clock()),
      engine_(EngineMetrics::register_in(registry_)) {
  merged_.resize_for(registry_);
}

void Recorder::begin_run(std::size_t lanes) {
  lanes_.resize(lanes);
  for (LaneShard& shard : lanes_) shard.resize_for(registry_);
  serial_.resize_for(registry_);
  // Metrics registered since construction (or the previous run) get their
  // zeroed slots in the accumulator too, so merge widths always agree.
  if (merged_.counters_.size() != registry_.counter_names().size() ||
      merged_.gauges_.size() != registry_.gauge_names().size() ||
      merged_.hists_.size() != registry_.histogram_names().size()) {
    LaneShard grown;
    grown.resize_for(registry_);
    merged_.merge_into(grown);
    merged_ = std::move(grown);
  }
}

void Recorder::end_run() {
  for (const LaneShard& shard : lanes_) shard.merge_into(merged_);
  serial_.merge_into(merged_);
  lanes_.clear();
  serial_.resize_for(registry_);
}

namespace {

template <typename T>
std::vector<std::pair<std::string, T>> sorted_by_name(
    const std::vector<std::string>& names, const std::vector<T>& values) {
  std::vector<std::pair<std::string, T>> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size() && i < values.size(); ++i)
    out.emplace_back(names[i], values[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

Snapshot Recorder::snapshot() const {
  Snapshot snap;
  snap.counters =
      sorted_by_name(registry_.counter_names(), merged_.counters_);
  snap.gauges = sorted_by_name(registry_.gauge_names(), merged_.gauges_);
  snap.histograms =
      sorted_by_name(registry_.histogram_names(), merged_.hists_);
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
