#include "campaign/sink.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <string>
#include <type_traits>

#include "metrics/stats.h"
#include "util/strict_parse.h"

namespace flashflow::campaign {

struct Row {
  int period;
  int slot;  // SlotResult::slot
  std::size_t relay;
  const RelayEstimate& est;
  const telemetry::SlotTrace& trace;
};

struct CellWriter {
  std::string& out;
  const bool json;

  template <typename T>
  void put(T value) {
    if constexpr (std::is_same_v<T, bool>) {
      out += json ? (value ? "true" : "false") : (value ? "1" : "0");
    } else if constexpr (std::is_floating_point_v<T>) {
      util::format_double(out, value);
    } else {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    }
  }
};

namespace {

// One table per file. Each cell writer is a generic lambda: the compiler
// instantiates it for (CellWriter&, const Row&) and CellWriter::put picks
// the spelling from the field's type.
const Column kResultColumns[] = {
    {"period", [](auto& out, auto& row) { out.put(row.period); }},
    {"relay", [](auto& out, auto& row) { out.put(row.relay); }},
    {"slot", [](auto& out, auto& row) { out.put(row.est.slot); }},
    {"estimate_bits",
     [](auto& out, auto& row) { out.put(row.est.estimate_bits); }},
    {"ground_truth_bits",
     [](auto& out, auto& row) { out.put(row.est.ground_truth_bits); }},
    {"relative_error",
     [](auto& out, auto& row) { out.put(row.est.relative_error); }},
    {"verification_failed",
     [](auto& out, auto& row) { out.put(row.est.verification_failed); }},
    // The fault columns: results_schema().fault_columns_begin.
    {"quality", [](auto& out, auto& row) { out.put(row.est.quality); }},
    {"attempt", [](auto& out, auto& row) { out.put(row.est.attempt); }},
    {"slot_failed", [](auto& out, auto& row) { out.put(row.est.slot_failed); }},
    {"quarantined", [](auto& out, auto& row) { out.put(row.est.quarantined); }},
};

const Column kFaultLedgerColumns[] = {
    {"period", [](auto& out, auto& row) { out.put(row.period); }},
    {"relay", [](auto& out, auto& row) { out.put(row.relay); }},
    {"slot", [](auto& out, auto& row) { out.put(row.est.slot); }},
    {"attempt", [](auto& out, auto& row) { out.put(row.est.attempt); }},
    {"failed", [](auto& out, auto& row) { out.put(row.est.slot_failed); }},
    {"quarantined", [](auto& out, auto& row) { out.put(row.est.quarantined); }},
    {"quality", [](auto& out, auto& row) { out.put(row.est.quality); }},
};

const Column kTraceColumns[] = {
    {"period", [](auto& out, auto& row) { out.put(row.period); }},
    {"slot", [](auto& out, auto& row) { out.put(row.slot); }},
    {"relay", [](auto& out, auto& row) { out.put(row.relay); }},
    {"segments", [](auto& out, auto& row) { out.put(row.trace.segments); }},
    {"attempt", [](auto& out, auto& row) { out.put(row.est.attempt); }},
    {"failed", [](auto& out, auto& row) { out.put(row.est.slot_failed); }},
    {"quarantined", [](auto& out, auto& row) { out.put(row.est.quarantined); }},
    {"quality", [](auto& out, auto& row) { out.put(row.est.quality); }},
    // Execution-dependent from here on.
    {"lane", [](auto& out, auto& row) { out.put(row.trace.lane); }},
    {"shard", [](auto& out, auto& row) { out.put(row.trace.shard); }},
    {"dispatch_us",
     [](auto& out, auto& row) { out.put(row.trace.timing.dispatch_micros); }},
    {"fill_paths_us",
     [](auto& out, auto& row) { out.put(row.trace.timing.fill_paths_micros); }},
    {"prepare_us",
     [](auto& out, auto& row) { out.put(row.trace.timing.prepare_micros); }},
    {"solve_us",
     [](auto& out, auto& row) { out.put(row.trace.timing.solve_micros); }},
};

/// The fault ledger skips healthy estimates: first attempt, full evidence.
bool fault_touched(const RelayEstimate& est) {
  return !(est.attempt == 0 && !est.slot_failed && !est.quarantined &&
           est.quality >= 1.0);
}

}  // namespace

const RowSchema& results_schema() {
  static const RowSchema schema{kResultColumns, /*fault_columns_begin=*/7};
  return schema;
}

const RowSchema& fault_ledger_schema() {
  static const RowSchema schema{.columns = kFaultLedgerColumns,
                                .keep = fault_touched};
  return schema;
}

const RowSchema& trace_schema() {
  static const RowSchema schema{kTraceColumns};
  return schema;
}

SlotReorderBuffer::SlotReorderBuffer(std::size_t count, std::size_t window,
                                     Deliver deliver)
    : count_(count),
      window_(std::max<std::size_t>(window, 1)),
      deliver_(std::move(deliver)),
      ring_(std::min(window_, count_ > 0 ? count_ : std::size_t{1})) {}

bool SlotReorderBuffer::park(std::size_t index, SlotResult&& result) {
  std::unique_lock<std::mutex> lock(mutex_);
  window_open_.wait(lock,
                    [&] { return aborted_ || index < next_ + window_; });
  if (aborted_) return false;
  ring_[index % ring_.size()] = std::move(result);
  if (index != next_) return true;  // a later parker flushes this entry

  // Flush the contiguous ready prefix. The deliver callback runs under
  // the buffer lock: deliveries are serialized and in order no matter how
  // many workers are parking concurrently.
  bool advanced = false;
  while (!aborted_ && next_ < count_) {
    std::optional<SlotResult>& slot = ring_[next_ % ring_.size()];
    if (!slot.has_value()) break;
    // Consume the entry before invoking the callback: if it throws, the
    // slot must not be re-delivered by the next worker entering the loop.
    SlotResult ready = std::move(*slot);
    slot.reset();
    ++next_;
    advanced = true;
    bool keep_going = false;
    try {
      keep_going = deliver_(std::move(ready));
      ++delivered_;
    } catch (...) {
      aborted_ = true;
      window_open_.notify_all();
      throw;
    }
    if (!keep_going) aborted_ = true;
  }
  if (advanced || aborted_) window_open_.notify_all();
  return true;
}

void SlotReorderBuffer::abort() {
  std::lock_guard<std::mutex> lock(mutex_);
  aborted_ = true;
  window_open_.notify_all();
}

std::size_t SlotReorderBuffer::delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delivered_;
}

void AggregatingSink::begin(const RunPlan& plan) {
  result_ = CampaignResult{};
  result_.relays.assign(static_cast<std::size_t>(plan.relays),
                        RelayEstimate{});
  result_.summary.slots_in_period = plan.slots_in_period;
}

void AggregatingSink::slot_done(const SlotResult& slot) {
  for (std::size_t i = 0; i < slot.relay_indices.size(); ++i)
    result_.relays[slot.relay_indices[i]] = slot.estimates[i];
}

CampaignResult AggregatingSink::result(const RunStats& stats) && {
  CampaignSummary& summary = result_.summary;
  summary.slots_executed = stats.slots_executed;
  summary.simulated_seconds = stats.simulated_seconds;
  summary.relays_measured = 0;
  std::vector<double> abs_errors;
  abs_errors.reserve(result_.relays.size());
  for (const RelayEstimate& est : result_.relays) {
    // Relays whose slot never ran (the run was cancelled) keep the
    // default slot == -1; they are not measured and must not dilute the
    // error statistics with their zero-initialized entries.
    if (est.slot < 0) continue;
    ++summary.relays_measured;
    if (est.attempt > 0) ++summary.relays_retried;
    if (est.quarantined) ++summary.relays_quarantined;
    if (est.slot_failed) {
      // No usable estimate: keep the zeros out of the error aggregates.
      ++summary.relays_failed;
      continue;
    }
    if (est.verification_failed) {
      ++summary.verification_failures;
      continue;
    }
    if (est.quality < 1.0) ++summary.relays_degraded;
    summary.total_true_bits += est.ground_truth_bits;
    summary.total_estimated_bits += est.estimate_bits;
    abs_errors.push_back(std::fabs(est.relative_error));
  }
  if (!abs_errors.empty()) {
    summary.mean_abs_relative_error =
        metrics::mean(metrics::as_span(abs_errors));
    summary.median_abs_relative_error =
        metrics::median(metrics::as_span(abs_errors));
    summary.max_abs_relative_error =
        *std::max_element(abs_errors.begin(), abs_errors.end());
  }
  return std::move(result_);
}

RowSink::RowSink(std::ostream& out, const RowSchema& schema,
                 RowFormat format)
    : out_(out), schema_(schema), format_(format) {
  const bool json = format_ == RowFormat::kJsonl;
  for (const Column& column : schema_.columns) {
    std::string& prefix = cell_prefix_.emplace_back(
        cell_prefix_.empty() ? (json ? "{" : "") : ",");
    if (json) prefix.append("\"").append(column.name).append("\":");
  }
}

void RowSink::begin(const RunPlan& plan) {
  ++period_;
  columns_ = plan.faults_enabled
                 ? schema_.columns.size()
                 : std::min(schema_.fault_columns_begin,
                            schema_.columns.size());
  if (format_ == RowFormat::kCsv && !header_written_) {
    for (std::size_t c = 0; c < columns_; ++c)
      out_ << cell_prefix_[c] << schema_.columns[c].name;
    out_ << '\n';
    header_written_ = true;
  }
}

void RowSink::slot_done(const SlotResult& slot) {
  const auto trace = slot.trace.value_or(telemetry::SlotTrace{});
  CellWriter cells{rows_, format_ == RowFormat::kJsonl};
  rows_.clear();
  for (std::size_t i = 0; i < slot.estimates.size(); ++i) {
    const Row row{period_, slot.slot, slot.relay_indices[i],
                  slot.estimates[i], trace};
    if (schema_.keep && !schema_.keep(row.est)) continue;
    for (std::size_t c = 0; c < columns_; ++c) {
      rows_ += cell_prefix_[c];
      schema_.columns[c].write(cells, row);
    }
    rows_ += format_ == RowFormat::kJsonl ? "}\n" : "\n";
  }
  out_.write(rows_.data(), static_cast<std::streamsize>(rows_.size()));
}

}  // namespace flashflow::campaign
