// Deterministic engine telemetry: named counters/gauges/histograms with
// per-lane shards, stage timers behind a Clock seam, and per-slot trace
// data (campaign::TraceJsonlSink in campaign/sink.h serializes it).
//
// Design constraints, in force everywhere this header is used:
//
//   - Zero overhead when off. The engine holds a `Recorder*` that is null
//     by default; every instrumentation site is guarded on it, so a run
//     without a recorder executes the exact pre-telemetry instruction
//     stream (the golden hashes pin the output either way).
//   - No atomics or locks on the hot path. Each worker lane owns a
//     LaneShard — plain arrays it alone writes — and the Recorder merges
//     the shards in lane-index order after the pool has drained, so the
//     merged totals are identical for every thread count and shard size.
//   - No allocation inside FF_HOT regions. Shards are sized at
//     begin_run(); add()/observe() are array writes. Wall-clock reads go
//     through the Clock seam and happen only outside hot regions.
//   - Timing never reaches results. Stage micros flow into histograms and
//     trace files only; campaign estimates, CSV/JSONL result streams and
//     the golden hashes never see a clock value. ffcheck's ND03 rule
//     keeps it that way: the only wall-clock read in the library is the
//     one suppressed site in telemetry/clock.cpp (see docs/determinism.md).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace flashflow::telemetry {

/// Monotonic time source seam. The engine never reads a clock directly:
/// it asks the recorder's Clock, so tests can substitute a fake and
/// ffcheck can pin the real read to one justified site (clock.cpp).
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic microseconds since an arbitrary epoch.
  virtual std::uint64_t now_micros() const = 0;
};

/// The process-wide monotonic clock (the library's single wall-clock
/// read). Named without any banned clock token on purpose.
const Clock& monotonic_clock();

/// Engine phases with stage timers around them. Per-slot stages (dispatch
/// through reorder_wait) are timed on the worker lane that ran the slot;
/// layout, retry_round and sink_serialize are timed in the serialized
/// sections of the campaign loop.
enum class Stage : int {
  kLayout = 0,      // scheduler layout (greedy pack / randomized period)
  kDispatch,        // §4.2 allocation + target build, per slot
  kFillPaths,       // PathModel::fill_paths bulk resolution, per slot
  kSolverPrepare,   // FairShareSolver::prepare (incl. crash re-prepares)
  kSolverSolve,     // the per-second segment loop (solve_prepared dominated)
  kReorderWait,     // SlotReorderBuffer::park wait + prefix flush
  kSinkSerialize,   // SlotSink::slot_done, under the reorder lock
  kRetryRound,      // one whole retry round (rounds after the first)
};
inline constexpr int kStageCount = 8;
std::string_view stage_name(Stage stage);

/// Per-stage wall micros for one slot, written by the engine while the
/// slot runs. Plain data; reset at each slot start. solver prepare/solve
/// spans overlap the enclosing dispatch/solve windows by design — each
/// stage answers "where did this slot's time go" independently.
struct SlotTiming {
  std::uint64_t dispatch_micros = 0;
  std::uint64_t fill_paths_micros = 0;
  std::uint64_t prepare_micros = 0;
  std::uint64_t solve_micros = 0;
  std::uint64_t reorder_micros = 0;
};

/// Per-slot execution trace attached to campaign::SlotResult when tracing
/// is enabled. `segments` is deterministic (a function of the fault plan);
/// `lane`, `shard` and `timing` depend on the thread count / shard size /
/// machine and are excluded from byte-identity checks.
struct SlotTrace {
  int lane = 0;
  /// Dispatch shard index the slot's work item belonged to (work index
  /// divided by the shard size).
  int shard = 0;
  /// Segments the per-second loop ran (1 unless a measurer crashed
  /// mid-slot).
  int segments = 1;
  SlotTiming timing;
};

/// Fixed log2 bucket layout shared by every histogram: bucket b counts
/// values v with bit_width(v) == b (bucket 0: v == 0; the last bucket
/// absorbs everything >= 2^14). Fixed so shards merge by array addition.
inline constexpr std::size_t kHistogramBuckets = 16;

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  friend bool operator==(const HistogramData&,
                         const HistogramData&) = default;
};

inline std::size_t histogram_bucket(std::uint64_t value) {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

using MetricId = std::size_t;

/// Name table for counters, gauges and histograms. Registration is
/// idempotent (same name returns the same id) and happens at setup time
/// only: Recorder::begin_run sizes the lane shards from the registry, so
/// metrics registered mid-run would have no slots until the next run.
class Registry {
 public:
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  const std::vector<std::string>& counter_names() const { return counters_; }
  const std::vector<std::string>& gauge_names() const { return gauges_; }
  const std::vector<std::string>& histogram_names() const { return hists_; }

 private:
  static MetricId intern(std::vector<std::string>& names,
                         std::string_view name);
  std::vector<std::string> counters_;
  std::vector<std::string> gauges_;
  std::vector<std::string> hists_;
};

/// One lane's private metric storage: plain arrays indexed by MetricId,
/// written lock-free by exactly one worker thread and merged after the
/// run has drained. add()/observe() never allocate.
class LaneShard {
 public:
  void add(MetricId counter, std::uint64_t v = 1) { counters_[counter] += v; }
  void gauge_max(MetricId gauge, double v) {
    if (v > gauges_[gauge]) gauges_[gauge] = v;
  }
  void observe(MetricId histogram, std::uint64_t value) {
    HistogramData& h = hists_[histogram];
    ++h.buckets[histogram_bucket(value)];
    ++h.count;
    h.sum += value;
  }

 private:
  friend class Recorder;
  void resize_for(const Registry& registry);
  void merge_into(LaneShard& into) const;

  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<HistogramData> hists_;
};

/// The MetricIds the campaign engine writes, pre-registered by Recorder so
/// instrumentation sites index arrays instead of interning names.
struct EngineMetrics {
  // Counters.
  MetricId slots = 0;          // campaign/slots delivered to workers
  MetricId relays = 0;         // campaign/relays measured
  MetricId retry_rounds = 0;   // campaign/retry_rounds executed
  MetricId trace_rows = 0;     // campaign/trace_slots emitted
  MetricId prepare_calls = 0;  // solver/prepare_calls
  MetricId solve_seconds = 0;  // solver/solve_seconds (solve_prepared calls)
  MetricId fill_steps = 0;     // solver/fill_steps (filling iterations)
  MetricId exact_quotients = 0;  // solver/exact_quotients (step divisions)
  MetricId fill_calls = 0;     // paths/fill_calls (one per target per slot)
  // Gauges.
  MetricId active_flows = 0;   // solver/active_flows (max over slots)
  // Deterministic histograms.
  MetricId segments_hist = 0;      // slot/segments
  MetricId slot_relays_hist = 0;   // slot/relays
  // Stage timing histograms, indexed by Stage.
  std::array<MetricId, kStageCount> stage_hist{};

  static EngineMetrics register_in(Registry& registry);
};

/// Merged, name-sorted view of everything a Recorder accumulated.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;
};

/// Engine-facing per-lane handle: the clock plus the lane's shard plus
/// the current slot's stage timing. A default-constructed probe is
/// disarmed; every note_* call requires an armed probe (the engine holds
/// a null pointer instead when telemetry is off).
class SlotProbe {
 public:
  SlotProbe() = default;
  void arm(const Clock& clock, LaneShard& shard,
           const EngineMetrics& metrics) {
    clock_ = &clock;
    shard_ = &shard;
    metrics_ = &metrics;
  }
  bool armed() const { return clock_ != nullptr; }

  std::uint64_t now() const { return clock_->now_micros(); }
  LaneShard& shard() { return *shard_; }
  const EngineMetrics& metrics() const { return *metrics_; }

  void begin_slot() {
    timing_ = SlotTiming{};
    segments_ = 1;
  }
  SlotTiming& timing() { return timing_; }
  int segments() const { return segments_; }

  // Call-site helpers for the slot pipeline (core/measurement.cpp).
  void note_fill_paths(std::uint64_t micros, std::uint64_t calls) {
    timing_.fill_paths_micros += micros;
    shard_->add(metrics_->fill_calls, calls);
  }
  void note_prepare(std::uint64_t micros, std::size_t active_flows) {
    timing_.prepare_micros += micros;
    shard_->add(metrics_->prepare_calls);
    shard_->gauge_max(metrics_->active_flows,
                      static_cast<double>(active_flows));
  }
  void note_solve(std::uint64_t micros, std::uint64_t seconds) {
    timing_.solve_micros += micros;
    shard_->add(metrics_->solve_seconds, seconds);
  }
  /// The fair-share solver's work counts over a segment's solves.
  void note_solver_work(std::uint64_t fill_steps,
                        std::uint64_t exact_quotients) {
    shard_->add(metrics_->fill_steps, fill_steps);
    shard_->add(metrics_->exact_quotients, exact_quotients);
  }
  void note_segments(int segments) { segments_ = segments; }

  /// Records the finished slot: slot/relay counters, the deterministic
  /// histograms, and one observation per stage timing histogram.
  void finish_slot(std::size_t slot_relays);

 private:
  const Clock* clock_ = nullptr;
  LaneShard* shard_ = nullptr;
  const EngineMetrics* metrics_ = nullptr;
  SlotTiming timing_;
  int segments_ = 1;
};

/// The telemetry session a caller attaches to a campaign run (or several:
/// multi-period experiments reuse one recorder and the shards accumulate).
/// Not thread-safe as a whole — the engine contract is: begin_run() and
/// end_run() from the driving thread; each lane(i) shard written by
/// exactly one worker; serial() written only from serialized sections
/// (layout/retry between rounds, sink delivery under the reorder lock).
class Recorder {
 public:
  /// `clock` is borrowed and must outlive the recorder; null selects the
  /// process monotonic clock.
  explicit Recorder(const Clock* clock = nullptr);

  Registry& registry() { return registry_; }
  /// The recorder's time source (not named clock(): ffcheck's ND03 flags
  /// that bare identifier wherever it appears).
  const Clock& time_source() const { return *clock_; }
  std::uint64_t now() const { return clock_->now_micros(); }
  const EngineMetrics& engine() const { return engine_; }

  /// Arms per-slot trace emission (campaign::SlotResult::trace).
  void enable_trace(bool on = true) { trace_ = on; }
  bool trace_enabled() const { return trace_; }

  /// Sizes one shard per lane (plus the serial shard) for a run. Metrics
  /// registered since the last run get fresh zero slots everywhere.
  void begin_run(std::size_t lanes);
  LaneShard& lane(std::size_t i) { return lanes_[i]; }
  /// Shard for the campaign loop's serialized sections.
  LaneShard& serial() { return serial_; }
  /// Convenience stage observation into the serial shard.
  void observe_stage(Stage stage, std::uint64_t micros) {
    serial_.observe(engine_.stage_hist[static_cast<int>(stage)], micros);
  }

  /// Merges lane shards (in lane-index order) and the serial shard into
  /// the accumulated totals, then drops the per-run shards.
  void end_run();

  /// Merged, name-sorted totals of every completed run.
  Snapshot snapshot() const;
  /// Merged totals as a small stable JSON document (`--metrics FILE`).
  void write_metrics(std::ostream& out) const;

 private:
  Registry registry_;
  const Clock* clock_;
  EngineMetrics engine_;
  bool trace_ = false;
  std::vector<LaneShard> lanes_;
  LaneShard serial_;
  LaneShard merged_;
};

}  // namespace flashflow::telemetry
