// Standard SlotSinks for the streaming campaign API.
//
// Because CampaignRunner delivers slots serialized and in increasing slot
// order, every sink here produces byte-identical output regardless of the
// worker thread count:
//
//   - AggregatingSink rebuilds a CampaignResult in memory,
//   - RowSink streams one CSV or JSONL row per relay estimate as the slots
//     finish, from a RowSchema: one column table per file (results, fault
//     ledger, trace) that both formats read, so each field of each file
//     is declared once. CsvSink, JsonlSink, FaultLedgerSink and
//     TraceJsonlSink name the four files `flashflow run` writes;
//     tests/test_docs.cpp walks the schemas against docs/result-files.md,
//   - FanoutSink forwards one stream to several sinks.
//
// SlotReorderBuffer is the delivery mechanism behind that ordering
// guarantee: workers park completed slots in arbitrary order, the buffer
// flushes the contiguous prefix in slot order, and a bounded window keeps
// a straggling early slot from piling the whole period up in memory.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"

namespace flashflow::campaign {

/// Re-orders out-of-order slot completions into in-order deliveries, with
/// bounded buffering.
///
/// Workers complete indices in arbitrary order, but sinks must observe
/// increasing order. Completed results park here; whichever worker parks
/// the next undelivered index flushes the contiguous ready prefix through
/// the deliver callback (serialized under the buffer lock, so sinks never
/// see concurrent calls). At most `window` undelivered results are held:
/// a worker that finishes an index too far ahead blocks until the window
/// advances, so memory stays O(window · result size) instead of
/// O(period · result size) — which matters when record_outcomes attaches
/// four per-second series to every slot of a 6,419-relay period.
///
/// Deadlock freedom: this relies on each producer lane handing over its
/// indices in strictly increasing order (ThreadPool::parallel_for
/// guarantees it). The lane owning the next undelivered index is then
/// never blocked — that index is always inside the window — and every
/// delivery advances the window and wakes the waiters.
class SlotReorderBuffer {
 public:
  /// Called in increasing index order, exactly once per delivered index.
  /// Return false to cancel: the buffer aborts, parked results are
  /// dropped, and blocked workers unblock.
  using Deliver = std::function<bool(SlotResult&&)>;

  /// Indices in [0, count) may be parked, each exactly once; at most
  /// `window` (clamped to >= 1) undelivered results are held at a time.
  SlotReorderBuffer(std::size_t count, std::size_t window, Deliver deliver);

  /// Parks the result for `index`, blocking while the index is beyond the
  /// bounded window, then flushes the ready prefix. If the deliver
  /// callback throws, the buffer aborts and the exception propagates out
  /// of the flushing park() call. Returns false if the buffer was already
  /// aborted (the result is dropped).
  bool park(std::size_t index, SlotResult&& result);

  /// Drops undelivered results and unblocks parked workers; subsequent
  /// park() calls return false immediately.
  void abort();

  /// Results delivered so far (== count after an uncancelled run).
  std::size_t delivered() const;

 private:
  const std::size_t count_;
  const std::size_t window_;
  Deliver deliver_;
  mutable std::mutex mutex_;
  std::condition_variable window_open_;
  /// Ring of the window's parked results, indexed by index % window_.
  std::vector<std::optional<SlotResult>> ring_;
  std::size_t next_ = 0;  // next index to deliver
  std::size_t delivered_ = 0;
  bool aborted_ = false;
};

/// Rebuilds the in-memory CampaignResult from the stream: per-relay
/// estimates aligned with the input population plus the aggregate summary.
class AggregatingSink : public SlotSink {
 public:
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

  /// Finalizes the summary from the collected estimates and the run's
  /// deterministic counters. Call after run() returns.
  CampaignResult result(const RunStats& stats) &&;

 private:
  CampaignResult result_;
};

struct Row;         // one relay estimate as a row sees it (sink.cpp)
struct CellWriter;  // appends one cell in the row's format (sink.cpp)

/// One column: its name (CSV header cell, JSONL key) and its cell.
struct Column {
  const char* name;
  void (*write)(CellWriter& out, const Row& row);
};

/// The columns of one result file, in file order.
struct RowSchema {
  std::span<const Column> columns;
  /// Columns from here on are written only when the run has fault
  /// injection armed (RunPlan::faults_enabled), so fault-free byte streams
  /// stay identical to pre-fault builds. The default gates none.
  std::size_t fault_columns_begin = std::numeric_limits<std::size_t>::max();
  /// Rows kept; null keeps every estimate.
  bool (*keep)(const RelayEstimate& estimate) = nullptr;
};

/// The files `flashflow run` writes (columns: docs/result-files.md).
/// results.csv and results.jsonl, the fault columns gated.
const RowSchema& results_schema();
/// faults.csv: only the estimates a fault touched (retried, failed,
/// quarantined, or quality < 1).
const RowSchema& fault_ledger_schema();
/// trace.jsonl. Its field order is a format contract: everything before
/// "lane" is byte-identical for every thread count and shard size, and
/// comparisons cut each line at `,"lane":`. An untraced slot (no Recorder
/// with tracing enabled) prints the default SlotTrace{}.
const RowSchema& trace_schema();

enum class RowFormat {
  kCsv,    // a header line, then comma-separated cells; flags are 1/0
  kJsonl,  // one JSON object per line keyed by column; flags true/false
};

/// Streams one row per relay estimate the schema keeps. `period` counts
/// begin() calls (scenario::Experiment streams every period into one
/// sink) and the CSV header is written once. Doubles print in shortest
/// round-trip form (util::format_double), so files diff cleanly. A slot's
/// rows are built in a reused buffer and handed to the stream in one write.
class RowSink : public SlotSink {
 public:
  RowSink(std::ostream& out, const RowSchema& schema, RowFormat format);
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

 private:
  std::ostream& out_;
  const RowSchema schema_;
  const RowFormat format_;
  /// Text before each column's cell: the separator, and in JSONL the key.
  std::vector<std::string> cell_prefix_;
  std::size_t columns_ = 0;  // written this period
  bool header_written_ = false;
  int period_ = -1;
  std::string rows_;
};

struct CsvSink : RowSink {
  explicit CsvSink(std::ostream& out)
      : RowSink(out, results_schema(), RowFormat::kCsv) {}
};
struct JsonlSink : RowSink {
  explicit JsonlSink(std::ostream& out)
      : RowSink(out, results_schema(), RowFormat::kJsonl) {}
};
struct FaultLedgerSink : RowSink {
  explicit FaultLedgerSink(std::ostream& out)
      : RowSink(out, fault_ledger_schema(), RowFormat::kCsv) {}
};
struct TraceJsonlSink : RowSink {
  explicit TraceJsonlSink(std::ostream& out)
      : RowSink(out, trace_schema(), RowFormat::kJsonl) {}
};

/// Forwards one stream to each sink, in the order given; null sinks are
/// skipped, so optional ones can be listed unconditionally. on_progress
/// asks every sink, and any one of them cancels the run.
class FanoutSink : public SlotSink {
 public:
  FanoutSink(std::initializer_list<SlotSink*> sinks) {
    for (SlotSink* sink : sinks)
      if (sink) sinks_.push_back(sink);
  }

  void begin(const RunPlan& plan) override {
    for (SlotSink* sink : sinks_) sink->begin(plan);
  }
  void slot_done(const SlotResult& slot) override {
    for (SlotSink* sink : sinks_) sink->slot_done(slot);
  }
  bool on_progress(int slots_done, int slots_total) override {
    bool keep = true;
    for (SlotSink* sink : sinks_)
      keep = sink->on_progress(slots_done, slots_total) && keep;
    return keep;
  }

 private:
  std::vector<SlotSink*> sinks_;
};

}  // namespace flashflow::campaign
