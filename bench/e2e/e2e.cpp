// End-to-end benchmark program: one scenario file, one process, one thread.
//
//   flashflow_e2e SCENARIO.yaml --rounds R [--seed N] [--trace 0|1]
//
// Every iteration does in-process exactly what
// `flashflow run SCENARIO.yaml --seed N --threads 1` does: parse the
// scenario text, construct the scenario::Experiment (materialize + team
// resolution), run every period through CsvSink + JsonlSink (+
// FaultLedgerSink when faults are armed), and serialize the final
// period's bandwidth file. The result streams are digested instead of
// written: file writes on a shared filesystem spread run-to-run timings
// far more than the engine itself does.
//
// Input i is the scenario at seed_of(i): input 0 is the scenario at --seed
// (default: the file's seed), the others step away from it. After one
// discarded warm-up iteration of input 0, the timed phase makes R rounds,
// each running the kInputs inputs once in turn. An input's time is the
// median of its R runs, and the run's time for the whole set is the sum
// of those medians: interleaving the inputs spreads a slow phase of the
// host over all of them, and summing over several populations keeps one
// seed's share of the work from moving the result. R is fixed by the
// caller, never by elapsed time, so two builds run exactly the same work.
// The gated times are scaled to a core of fixed speed through a reference
// kernel run between every two iterations (reference_kernel()); the
// wall.* metrics keep them unscaled.
// With --trace 1 the program then runs traced iterations of input 0 with a
// telemetry::Recorder attached and times its own calls into each module's
// public functions: scenario parse/materialize/team, the core layout, a
// replay of period 0's first round slot by slot (with a telemetry probe
// on each replayed slot for the solver and path stages), and the
// bandwidth-file round trip.
//
// Output: one JSON object on stdout (bench/e2e/README.md lists every
// field and metric). The run fails — correct:false, exit 1 — when a rerun
// of an input digests differently from its first run, when fewer
// relay estimates come back than relays x periods, when a bandwidth file
// does not parse back to one entry per verified relay, or when the replay
// disagrees with the engine on any relay.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "core/allocation.h"
#include "core/measurement.h"
#include "core/schedule.h"
#include "core/team.h"
#include "fault/fault.h"
#include "metrics/stats.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "tor/bandwidth_file.h"
#include "util/strict_parse.h"

using namespace flashflow;

namespace {

/// Populations a run times and pools accuracy over. One population's work
/// differs from another's by up to 7% (standard deviation, crowded_slots)
/// and its median error by a few percent; eight together cut both to a
/// third.
constexpr std::size_t kInputs = 8;
/// Time of reference_kernel() on a core no neighbour competes for (x86,
/// measured once and then fixed): the core speed the gated times are
/// scaled to.
constexpr double kReferenceMs = 4.7;
/// Slot samples the replay's slot and solver percentiles need; with fewer
/// slots in a period the passes cycle until there are this many (p90 then
/// has ten samples beyond it).
constexpr std::size_t kMinSlotSamples = 100;
/// Timed iterations per traced pair: the traced phase runs
/// max(1, R * kInputs / kIterationsPerTracedPair) pairs, about a fifth of
/// the timed phase's work.
constexpr std::size_t kIterationsPerTracedPair = 10;
/// Sub-millisecond calls are repeated until this much time has passed,
/// so the microsecond clock resolves them.
constexpr std::uint64_t kMinSpanMicros = 20'000;
/// Same for each slot sample of a percentile: repeated until this long,
/// so a 20 µs slot still resolves to better than 1%.
constexpr std::uint64_t kMinSampleMicros = 200;

std::uint64_t now_us() { return telemetry::monotonic_clock().now_micros(); }

double since_ms(std::uint64_t start_us) {
  return static_cast<double>(now_us() - start_us) * 1e-3;
}

/// Mean wall milliseconds of `fn`, repeated until kMinSpanMicros passed.
double mean_ms(const std::function<void()>& fn) {
  const std::uint64_t start = now_us();
  std::uint64_t calls = 0;
  do {
    fn();
    ++calls;
  } while (now_us() - start < kMinSpanMicros);
  return since_ms(start) / static_cast<double>(calls);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Results of timed work land here, so the optimizer cannot drop it.
volatile double g_sink = 0.0;

// ------------------------------------------------------------ calibration --

/// A fixed single-core burn: a dependent xorshift + multiply-add chain the
/// compiler cannot shorten. Its wall time tracks the speed of the core
/// the process got, independent of anything the repository does.
double burn() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 12'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  return acc;
}

/// Median of three single burns, in ms.
double burn_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t start = now_us();
    g_sink = g_sink + burn();
    ms.push_back(since_ms(start));
  }
  return metrics::median(ms);
}

/// nproc burns at once against one: nproc when every core is real and
/// idle, ~1 when the neighbours leave this process one core's worth.
double effective_cores(double single_burn_ms) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw > 0 ? hw : 1;
  std::vector<double> results(n, 0.0);
  const std::uint64_t start = now_us();
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i)
      threads.emplace_back([&results, i] { results[i] = burn(); });
    for (auto& t : threads) t.join();
  }
  const double parallel_ms = since_ms(start);
  for (const double r : results) g_sink = g_sink + r;
  return static_cast<double>(n) * single_burn_ms / parallel_ms;
}

/// Start value of the reference kernel, read through volatile so the
/// compiler cannot fold the kernel into a constant.
volatile std::uint64_t g_reference_seed = 1;

/// The reference kernel: eight independent integer streams, so the core
/// can issue several operations per cycle. On a shared host the process's
/// core slows down when a neighbour competes for the core's execution
/// units, and the engine and this kernel slow down together (per-round
/// correlation 0.89–0.97 on the 4-vCPU box the benchmark was built on),
/// where the dependent chain of burn() hardly notices.
std::uint64_t reference_kernel() {
  std::uint64_t a = g_reference_seed, b = 2, c = 3, d = 4, e = 5, f = 6,
                g = 7, h = 8;
  for (int i = 0; i < 4'000'000; ++i) {
    a = a * 6364136223846793005ULL + 1;
    b ^= b << 13;
    c += c >> 3;
    d = d * 3 + 7;
    e ^= e >> 7;
    f += a ^ b;
    g ^= c + d;
    h += e * f;
  }
  return a + b + c + d + e + f + g + h;
}

/// One run of the reference kernel, in ms.
double reference_ms() {
  const std::uint64_t start = now_us();
  g_sink = g_sink + static_cast<double>(reference_kernel());
  return since_ms(start);
}

// ---------------------------------------------------------------- the run --

/// Streams one slot delivery to every attached sink (as `flashflow run`
/// does), timing the sinks' own work when a traced iteration asks for it.
class FanoutSink : public campaign::SlotSink {
 public:
  explicit FanoutSink(bool timed) : timed_(timed) {}
  void attach(campaign::SlotSink* sink) { sinks_.push_back(sink); }

  void begin(const campaign::RunPlan& plan) override {
    for (auto* sink : sinks_) sink->begin(plan);
  }
  void slot_done(const campaign::SlotResult& slot) override {
    const std::uint64_t start = timed_ ? now_us() : 0;
    for (auto* sink : sinks_) sink->slot_done(slot);
    if (timed_) sink_micros_ += now_us() - start;
  }
  bool on_progress(int done, int total) override {
    bool keep = true;
    for (auto* sink : sinks_) keep = sink->on_progress(done, total) && keep;
    return keep;
  }
  double sink_ms() const { return static_cast<double>(sink_micros_) * 1e-3; }

 private:
  bool timed_;
  std::vector<campaign::SlotSink*> sinks_;
  std::uint64_t sink_micros_ = 0;
};

/// What the output checks keep of one result file: its FNV-1a 64 digest
/// (sim::hash_tag) and size.
struct Artifact {
  std::string name;
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
};

/// Stream buffer that digests what is written instead of storing it. A
/// result stream then costs the run a fixed 64 KiB, as a file would, and
/// peak RSS stays that of `flashflow run`.
class DigestBuf : public std::streambuf {
 public:
  DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }

  Artifact artifact(std::string name) {
    drain();
    return {std::move(name), hash_, bytes_};
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    const std::string_view chunk(pbase(),
                                 static_cast<std::size_t>(pptr() - pbase()));
    hash_ = sim::hash_tag(chunk, hash_);  // FNV-1a continues across chunks
    bytes_ += chunk.size();
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::array<char, 1 << 16> buf_{};
  std::uint64_t hash_ = sim::hash_tag("");  // the FNV-1a offset basis
  std::uint64_t bytes_ = 0;
};

struct Iteration {
  double setup_s = 0.0;
  double total_s = 0.0;
  double run_ms = 0.0;  // Experiment::run, sinks included
  double sink_ms = 0.0;  // traced iterations only
  double bwfile_ms = 0.0;
  /// The files `flashflow run` writes, in digest order: results.csv,
  /// results.jsonl, bandwidth.txt, then faults.csv for fault-armed runs.
  std::vector<Artifact> artifacts;
  std::string bandwidth;  // bandwidth.txt's text, for the parse check
  scenario::Experiment::Result result;
  std::unique_ptr<scenario::Experiment> experiment;
  campaign::CampaignResult period0;  // traced iterations only
};

struct RunConfig {
  std::string scenario_path;
  std::string scenario_text;
};

scenario::ScenarioSpec parse_spec(const RunConfig& cfg, std::uint64_t seed) {
  scenario::ScenarioSpec spec =
      scenario::parse_scenario(cfg.scenario_text, cfg.scenario_path);
  spec.seed = seed;
  spec.threads = 1;
  return spec;
}

/// One iteration of the scenario at `seed`; `recorder` non-null makes it a
/// traced iteration.
Iteration run_iteration(const RunConfig& cfg, std::uint64_t seed,
                        telemetry::Recorder* recorder) {
  Iteration it;
  const bool traced = recorder != nullptr;
  const std::uint64_t start = now_us();
  it.experiment =
      std::make_unique<scenario::Experiment>(parse_spec(cfg, seed));
  const std::uint64_t setup_end = now_us();
  scenario::Experiment& experiment = *it.experiment;
  if (recorder) experiment.set_telemetry(recorder);

  DigestBuf csv_buf;
  DigestBuf jsonl_buf;
  DigestBuf faults_buf;
  std::ostream csv_out(&csv_buf);
  std::ostream jsonl_out(&jsonl_buf);
  std::ostream faults_out(&faults_buf);
  campaign::CsvSink csv(csv_out);
  campaign::JsonlSink jsonl(jsonl_out);
  FanoutSink fanout(traced);
  fanout.attach(&csv);
  fanout.attach(&jsonl);
  std::optional<campaign::FaultLedgerSink> ledger;
  if (experiment.spec().faults.enabled()) {
    ledger.emplace(faults_out);
    fanout.attach(&*ledger);
  }
  scenario::Experiment::PeriodHook hook;
  if (traced)
    hook = [&it](const scenario::Experiment::PeriodRecord& record,
                 const campaign::CampaignResult& result) {
      if (record.period == 0) it.period0 = result;
    };
  it.result = experiment.run(&fanout, hook);
  const std::uint64_t run_end = now_us();
  if (!it.result.cancelled && !it.result.periods.empty())
    it.bandwidth = experiment.bandwidth_file_text(
        static_cast<int>(it.result.periods.size()) - 1,
        it.result.final_period);
  const std::uint64_t end = now_us();

  it.setup_s = static_cast<double>(setup_end - start) * 1e-6;
  it.total_s = static_cast<double>(end - start) * 1e-6;
  it.run_ms = static_cast<double>(run_end - setup_end) * 1e-3;
  it.bwfile_ms = static_cast<double>(end - run_end) * 1e-3;
  it.sink_ms = fanout.sink_ms();
  it.artifacts.push_back(csv_buf.artifact("results.csv"));
  it.artifacts.push_back(jsonl_buf.artifact("results.jsonl"));
  it.artifacts.push_back({"bandwidth.txt", sim::hash_tag(it.bandwidth),
                          it.bandwidth.size()});
  if (ledger) it.artifacts.push_back(faults_buf.artifact("faults.csv"));
  return it;
}

std::uint64_t artifact_bytes(const Iteration& it, std::string_view name) {
  for (const Artifact& a : it.artifacts)
    if (a.name == name) return a.bytes;
  return 0;
}

/// Each artifact's digest in hex, plus the combined digest ("all"):
/// FNV-1a 64 of the "<file> <hex>\n" lines in artifact order.
std::vector<std::pair<std::string, std::string>> digest(const Iteration& it) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const Artifact& a : it.artifacts)
    files.emplace_back(a.name, hex64(a.digest));
  std::string lines;
  for (const auto& [name, hex] : files) {
    lines += name;
    lines += ' ';
    lines += hex;
    lines += '\n';
  }
  files.emplace_back("all", hex64(sim::hash_tag(lines)));
  return files;
}

/// Relays that passed verification and produced an estimate: exactly the
/// ones the bandwidth file vouches for.
std::size_t verified_relays(const campaign::CampaignResult& result) {
  return static_cast<std::size_t>(std::count_if(
      result.relays.begin(), result.relays.end(),
      [](const campaign::RelayEstimate& e) {
        return !e.verification_failed && e.estimate_bits > 0.0;
      }));
}

/// The per-iteration correctness gates; returns the failure, empty if ok.
std::string check_iteration(const Iteration& it, const std::string& ref_digest,
                            bool parse_bandwidth) {
  if (it.result.cancelled) return "run cancelled";
  const std::size_t relays = it.experiment->materialized().relays.size();
  std::size_t measured = 0;
  for (const auto& period : it.result.periods)
    measured += static_cast<std::size_t>(period.summary.relays_measured);
  const std::size_t periods =
      static_cast<std::size_t>(it.experiment->spec().periods);
  if (measured != relays * periods) {
    std::string msg = "relays measured ";
    msg += std::to_string(measured);
    msg += " != relays x periods ";
    msg += std::to_string(relays * periods);
    return msg;
  }
  const std::string got = digest(it).back().second;
  if (!ref_digest.empty() && got != ref_digest) {
    std::string msg = "output digest ";
    msg += got;
    msg += " differs from the warm-up's ";
    msg += ref_digest;
    return msg;
  }
  if (parse_bandwidth) {
    const auto parsed = tor::parse_bandwidth_file(it.bandwidth);
    const std::size_t verified = verified_relays(it.result.final_period);
    if (parsed.entries.size() != verified) {
      std::string msg = "bandwidth file parses to ";
      msg += std::to_string(parsed.entries.size());
      msg += " entries, ";
      msg += std::to_string(verified);
      msg += " relays verified";
      return msg;
    }
  }
  return {};
}

// ------------------------------------------------------------ the replay --

/// One occupied slot of period 0's first round, as the campaign runs it.
struct ReplaySlot {
  std::size_t slot = 0;
  std::vector<std::size_t> members;
};

/// Period 0's first round rebuilt from the modules' public functions:
/// core layout, §4.2 allocation + make_shares, SlotRunner::run_concurrent
/// per slot — compared relay by relay against what the engine delivered.
struct Replay {
  const scenario::Experiment& experiment;
  const core::Params& params;
  std::uint64_t seed = 0;
  std::vector<double> caps;
  std::vector<int> cores;
  std::vector<double> priors;
  std::vector<ReplaySlot> slots;
  double layout_ms = 0.0;

  explicit Replay(const scenario::Experiment& exp)
      : experiment(exp),
        params(exp.spec().params),
        seed(scenario::period_seed(exp.spec(), 0)),
        caps(exp.measurer_capacities()),
        cores(core::Team(exp.materialized().topology,
                         exp.materialized().measurer_hosts)
                  .cores()) {
    // The campaign's own prior rule (configured z0, else the oracle).
    for (const auto& relay : exp.materialized().relays)
      priors.push_back(relay.prior_estimate_bits > 0.0
                           ? relay.prior_estimate_bits
                           : relay.model.ground_truth(params.sockets));
    const double team = std::accumulate(caps.begin(), caps.end(), 0.0);
    const std::uint64_t start = now_us();
    std::vector<int> relay_slot;
    if (exp.spec().schedule == campaign::ScheduleMode::kGreedyPack) {
      relay_slot = core::greedy_pack(priors, team, params).relay_slot;
    } else {
      core::PeriodSchedule schedule(
          params, team, seed ^ sim::hash_tag("campaign/schedule"));
      relay_slot = schedule.schedule_old_relays(priors);
    }
    layout_ms = since_ms(start);
    const int last = *std::max_element(relay_slot.begin(), relay_slot.end());
    std::vector<std::vector<std::size_t>> by_slot(
        static_cast<std::size_t>(last + 1));
    for (std::size_t r = 0; r < relay_slot.size(); ++r)
      by_slot[static_cast<std::size_t>(relay_slot[r])].push_back(r);
    for (std::size_t s = 0; s < by_slot.size(); ++s)
      if (!by_slot[s].empty()) slots.push_back({s, std::move(by_slot[s])});
  }

  /// §4.2 allocation for one slot into `targets` (the campaign's dispatch).
  void build_targets(const ReplaySlot& slot, core::AllocationScratch& scratch,
                     std::vector<core::SlotRunner::ConcurrentTarget>& targets)
      const {
    const auto& mat = experiment.materialized();
    std::vector<double> residual = caps;
    targets.resize(slot.members.size());
    for (std::size_t t = 0; t < slot.members.size(); ++t) {
      const std::size_t r = slot.members[t];
      const auto alloc = core::allocate_greedy(
          residual, params.excess_factor() * priors[r], scratch);
      for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= alloc[i];
      const auto shares = core::make_shares(alloc, cores, params, scratch);
      auto& target = targets[t];
      target.relay = &mat.relays[r].model;
      target.host = mat.relays[r].host;
      target.behavior = mat.relays[r].behavior;
      target.team.clear();
      for (const auto& share : shares)
        if (share.allocated_bits > 0.0)
          target.team.push_back({mat.measurer_hosts[share.measurer_index],
                                 share.allocated_bits, share.sockets});
    }
  }
};

double counter(const telemetry::Snapshot& snap, std::string_view name) {
  for (const auto& [counter_name, value] : snap.counters)
    if (counter_name == name) return static_cast<double>(value);
  return 0.0;
}

double gauge(const telemetry::Snapshot& snap, std::string_view name) {
  for (const auto& [gauge_name, value] : snap.gauges)
    if (gauge_name == name) return value;
  return 0.0;
}

struct ReplayResult {
  std::vector<double> slot_ms;   // per sample: dispatch + slot run
  std::vector<double> solve_us;  // per sample: the slot's per-second loop
  std::size_t mismatches = 0;
  // The engine's own counters over one run of every slot (the first pass).
  double solves = 0.0;       // solver/solve_seconds
  double flow_solves = 0.0;  // solver/active_flows x solver/solve_seconds
  // Probe stage time over every run of every sample, and the work it
  // covered.
  double solve_ns = 0.0;
  double sample_flow_solves = 0.0;
  double fill_paths_ns = 0.0;
  double sample_pairs = 0.0;  // (target, measurer) paths resolved
};

/// Runs every slot of the replay (cycling until kMinSlotSamples) and
/// counts relays whose first-round outcome differs from the engine's. A
/// slot's sample is its mean time over repeats of at least
/// kMinSampleMicros; only the first run of each slot is checked. Each
/// sample's runs carry a telemetry::SlotProbe armed on a fresh Recorder
/// lane, as a campaign lane's do, so the solver and path figures are the
/// engine's own stage timings and counters on the real slot instances.
ReplayResult replay_slots(const Replay& replay,
                          const campaign::CampaignResult& period0) {
  const auto& exp = replay.experiment;
  const fault::FaultPlan plan(exp.spec().faults, replay.seed);
  const std::uint64_t slot_domain =
      replay.seed ^ sim::hash_tag("campaign/slot");
  core::SlotWorkspace workspace;
  core::AllocationScratch scratch;
  std::vector<core::SlotRunner::ConcurrentTarget> targets;
  ReplayResult out;
  for (std::size_t pass = 0; pass == 0 || out.slot_ms.size() < kMinSlotSamples;
       ++pass) {
    for (const ReplaySlot& slot : replay.slots) {
      if (pass > 0 && out.slot_ms.size() >= kMinSlotSamples) break;
      telemetry::Recorder recorder;
      recorder.begin_run(1);
      telemetry::SlotProbe probe;
      probe.arm(recorder.time_source(), recorder.lane(0), recorder.engine());
      std::uint64_t solve_micros = 0;
      std::uint64_t fill_micros = 0;
      // Dispatch (§4.2 allocation) plus the slot run: a campaign lane's
      // whole per-slot work.
      const auto run_slot = [&] {
        replay.build_targets(slot, scratch, targets);
        core::SlotRunner runner(exp.materialized().topology, replay.params,
                                sim::Rng(slot_domain ^ slot.slot));
        runner.arm_faults(&plan, slot.slot);
        runner.set_probe(&probe);
        probe.begin_slot();
        auto outcomes = runner.run_concurrent(targets, workspace);
        solve_micros += probe.timing().solve_micros;
        fill_micros += probe.timing().fill_paths_micros;
        return outcomes;
      };
      const std::uint64_t start = now_us();
      const auto outcomes = run_slot();
      int runs = 1;
      for (; now_us() - start < kMinSampleMicros; ++runs) run_slot();
      out.slot_ms.push_back(since_ms(start) / runs);
      out.solve_us.push_back(static_cast<double>(solve_micros) / runs);
      recorder.end_run();
      const telemetry::Snapshot snap = recorder.snapshot();
      // Every run of a sample repeats the same slot, so per-run counts
      // divide exactly. active_flows is the slot's largest prepared flow
      // set (the first segment's when a measurer crash splits the slot).
      const double solves = counter(snap, "solver/solve_seconds") / runs;
      const double flows = gauge(snap, "solver/active_flows");
      // A slot that times out whole resolves no paths.
      double pairs = 0.0;
      if (counter(snap, "paths/fill_calls") > 0)
        for (const auto& target : targets)
          pairs += static_cast<double>(target.team.size());
      out.solve_ns += static_cast<double>(solve_micros) * 1e3;
      out.sample_flow_solves += flows * solves * runs;
      out.fill_paths_ns += static_cast<double>(fill_micros) * 1e3;
      out.sample_pairs += pairs * runs;
      if (pass > 0) continue;
      out.solves += solves;
      out.flow_solves += flows * solves;
      for (std::size_t t = 0; t < slot.members.size(); ++t) {
        const campaign::RelayEstimate& est = period0.relays[slot.members[t]];
        // A relay the engine retried failed in this round; one it did not
        // retry carries this round's outcome as its final estimate.
        const bool first_round = est.attempt == 0;
        const bool failed_here = !first_round || est.slot_failed;
        if (outcomes[t].failed != failed_here ||
            (first_round &&
             (est.slot != static_cast<int>(slot.slot) ||
              outcomes[t].estimate_bits != est.estimate_bits ||
              outcomes[t].verification_failed != est.verification_failed)))
          ++out.mismatches;
      }
    }
  }
  return out;
}

/// µs per relay of the §4.2 dispatch (allocate_greedy + make_shares and
/// the target build) over the whole replayed period.
double allocate_us_per_relay(const Replay& replay) {
  core::AllocationScratch scratch;
  std::vector<core::SlotRunner::ConcurrentTarget> targets;
  std::size_t relays = 0;
  for (const ReplaySlot& slot : replay.slots) relays += slot.members.size();
  const double pass_ms = mean_ms([&] {
    for (const ReplaySlot& slot : replay.slots)
      replay.build_targets(slot, scratch, targets);
  });
  return pass_ms * 1e3 / static_cast<double>(relays);
}

// ---------------------------------------------------------------- output --

/// Metrics in emission order, each with its unit; `deterministic` ones
/// must repeat exactly for a given (workload, seed, commit).
struct Metrics {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool deterministic = false;
  };
  std::vector<Entry> entries;

  void add(std::string name, double value, std::string unit,
           bool deterministic = false) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    entries.push_back({std::move(name), value, std::move(unit),
                       deterministic});
  }
};

std::string json_number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// {"key": raw, ...} from already-serialized values.
std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (const auto& [key, raw] : fields) {
    if (out.size() > 1) out += ", ";
    out += json_string(key);
    out += ": ";
    out += raw;
  }
  out += '}';
  return out;
}

std::string json_array(const std::vector<std::string>& raw_items) {
  std::string out = "[";
  for (const auto& raw : raw_items) {
    if (out.size() > 1) out += ", ";
    out += raw;
  }
  out += ']';
  return out;
}

/// Stage histogram sum in ms per traced iteration.
double stage_ms(const telemetry::Snapshot& snap, telemetry::Stage stage,
                double iterations) {
  std::string name = "stage/";
  name += telemetry::stage_name(stage);
  for (const auto& [hist_name, data] : snap.histograms)
    if (hist_name == name)
      return static_cast<double>(data.sum) * 1e-3 / iterations;
  return 0.0;
}

struct Options {
  RunConfig run;
  std::optional<std::uint64_t> seed;
  std::size_t rounds = 0;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "flashflow_e2e: " << message
            << "\nusage: flashflow_e2e SCENARIO.yaml --rounds R "
               "[--seed N] [--trace 0|1]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = util::parse_u64(value(), "flag '--seed'");
    } else if (arg == "--rounds") {
      opt.rounds = util::parse_u64(value(), "flag '--rounds'");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg.rfind("--", 0) == 0 || !opt.run.scenario_path.empty()) {
      usage_error("unexpected argument '" + arg + "'");
    } else {
      opt.run.scenario_path = arg;
    }
  }
  if (opt.run.scenario_path.empty()) usage_error("missing scenario file");
  if (opt.rounds == 0) usage_error("--rounds must be at least 1");
  std::ifstream in(opt.run.scenario_path);
  if (!in) usage_error("cannot read " + opt.run.scenario_path);
  std::ostringstream text;
  text << in.rdbuf();
  opt.run.scenario_text = text.str();
  return opt;
}

/// --trace 1: the per-layer metrics, measured on the scenario at `seed`
/// (input 0, whose warm-up digest is `ref`) over `traced_pairs` traced
/// iterations. Every rerun and the replay pass through `gate`.
void measure_layers(const RunConfig& run, std::uint64_t seed,
                    std::size_t traced_pairs, const std::string& ref,
                    const std::function<void(const std::string&)>& gate,
                    Metrics& out) {
  // Scenario layer, timed standalone (the Experiment constructor does
  // materialize + team resolution in one step). Runs first, while no
  // other materialization is alive.
  scenario::ScenarioSpec spec = parse_spec(run, seed);
  const double parse_ms = mean_ms([&] { spec = parse_spec(run, seed); });
  std::unique_ptr<scenario::MaterializedScenario> mat;
  const double materialize_ms = mean_ms([&] {
    mat.reset();
    mat = std::make_unique<scenario::MaterializedScenario>(
        scenario::materialize(spec));
  });
  std::vector<double> team;
  const double team_ms = mean_ms(
      [&] { team = scenario::resolve_team_capacities(spec, *mat); });
  mat.reset();

  // Traced iterations of input 0, each paired with an untraced one for
  // the overhead ratio. They share one recorder, so stage sums and
  // counters divide by the traced iteration count.
  telemetry::Recorder recorder;
  std::vector<double> overheads;
  double run_ms = 0.0, sink_ms = 0.0, bwfile_ms = 0.0, bwparse_ms = 0.0;
  double slots = 0.0, slots_retried = 0.0, slots_failed = 0.0;
  double wall_s = 0.0, retried = 0.0, quarantined = 0.0, degraded = 0.0;
  Iteration last;
  for (std::size_t pair = 0; pair < traced_pairs; ++pair) {
    last = Iteration{};  // one materialization alive at a time
    double untraced_s = 0.0;
    {
      const Iteration untraced = run_iteration(run, seed, nullptr);
      gate(check_iteration(untraced, ref, /*parse_bandwidth=*/false));
      untraced_s = untraced.total_s;
    }
    last = run_iteration(run, seed, &recorder);
    std::string failure = check_iteration(last, ref, false);
    const std::uint64_t parse_start = now_us();
    const auto parsed = tor::parse_bandwidth_file(last.bandwidth);
    bwparse_ms += since_ms(parse_start);
    if (failure.empty() &&
        parsed.entries.size() != verified_relays(last.result.final_period))
      failure = "traced bandwidth file entry count mismatch";
    gate(failure);
    overheads.push_back(last.total_s / untraced_s - 1.0);
    run_ms += last.run_ms;
    sink_ms += last.sink_ms;
    bwfile_ms += last.bwfile_ms;
    for (const auto& period : last.result.periods) {
      slots += period.stats.slots_executed;
      slots_retried += period.stats.slots_retried;
      slots_failed += period.stats.slots_failed;
      wall_s += period.stats.wall_seconds;
      retried += period.summary.relays_retried;
      quarantined += period.summary.relays_quarantined;
      degraded += period.summary.relays_degraded;
    }
  }
  const double n = static_cast<double>(traced_pairs);

  const Replay replay(*last.experiment);
  const ReplayResult slot_replay = replay_slots(replay, last.period0);
  std::string replay_failure;
  if (slot_replay.mismatches > 0) {
    replay_failure = "replay disagrees with the engine on ";
    replay_failure += std::to_string(slot_replay.mismatches);
    replay_failure += " relays";
  }
  gate(replay_failure);

  const telemetry::Snapshot snap = recorder.snapshot();
  out.add("scenario.parse_ms", parse_ms, "ms");
  out.add("scenario.materialize_ms", materialize_ms, "ms");
  out.add("scenario.team_ms", team_ms, "ms");
  out.add("core.layout_ms", replay.layout_ms, "ms");
  out.add("core.allocate_us_per_relay", allocate_us_per_relay(replay),
          "us");
  out.add("core.slot_ms_p50", metrics::percentile(slot_replay.slot_ms, 50),
          "ms");
  out.add("core.slot_ms_p90", metrics::percentile(slot_replay.slot_ms, 90),
          "ms");
  out.add("core.slot_samples",
          static_cast<double>(slot_replay.slot_ms.size()), "count", true);
  out.add("core.replay_mismatches",
          static_cast<double>(slot_replay.mismatches), "count", true);
  out.add("net.solve_us_p50", metrics::percentile(slot_replay.solve_us, 50),
          "us");
  out.add("net.solve_us_p90", metrics::percentile(slot_replay.solve_us, 90),
          "us");
  out.add("net.solve_ns_per_flow",
          slot_replay.solve_ns / slot_replay.sample_flow_solves, "ns");
  out.add("net.flows_per_solve",
          slot_replay.flow_solves / slot_replay.solves, "count", true);
  out.add("net.fill_paths_ns_per_pair",
          slot_replay.fill_paths_ns / slot_replay.sample_pairs, "ns");
  out.add("campaign.run_ms", run_ms / n, "ms");
  out.add("campaign.slots_per_s", slots / wall_s, "1/s");
  out.add("campaign.sink_ms", sink_ms / n, "ms");
  const std::pair<const char*, const char*> sink_files[] = {
      {"campaign.sink_bytes_csv", "results.csv"},
      {"campaign.sink_bytes_jsonl", "results.jsonl"},
      {"campaign.sink_bytes_faults", "faults.csv"}};
  for (const auto& [name, file] : sink_files)
    out.add(name, static_cast<double>(artifact_bytes(last, file)), "bytes",
            true);
  out.add("campaign.slots_executed", slots / n, "count", true);
  out.add("campaign.slots_retried", slots_retried / n, "count", true);
  out.add("campaign.useful_slot_ratio", (slots - slots_failed) / slots,
          "ratio", true);
  out.add("fault.relays_retried", retried / n, "count", true);
  out.add("fault.relays_quarantined", quarantined / n, "count", true);
  out.add("fault.relays_degraded", degraded / n, "count", true);
  out.add("tor.bwfile_ms", bwfile_ms / n, "ms");
  out.add("tor.bwfile_parse_ms", bwparse_ms / n, "ms");
  out.add("tor.bwfile_bytes",
          static_cast<double>(last.bandwidth.size()), "bytes", true);
  for (int s = 0; s < telemetry::kStageCount; ++s) {
    const auto stage = static_cast<telemetry::Stage>(s);
    std::string name = "trace.stage.";
    name += telemetry::stage_name(stage);
    name += "_ms";
    out.add(name, stage_ms(snap, stage, n), "ms");
  }
  out.add("trace.solve_seconds", counter(snap, "solver/solve_seconds") / n,
          "count", true);
  out.add("trace.fill_calls", counter(snap, "paths/fill_calls") / n, "count",
          true);
  out.add("trace.prepare_calls", counter(snap, "solver/prepare_calls") / n,
          "count", true);
  out.add("trace.overhead_ratio", metrics::median(overheads), "ratio");
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt = parse_args(argc, argv);
  Metrics out;
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  // Every iteration (and, traced, the replay) is one attempt; a non-empty
  // failure message fails it.
  const auto gate = [&](const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    failures.push_back(failure);
  };

  const double burn_start_ms = burn_ms();
  const double cores = effective_cores(burn_start_ms);

  // Iteration i runs the scenario at seed_of(i): seed_of(0) is --seed
  // (default: the file's seed), later ones step away from it by the
  // golden-ratio increment (wrapping), so neighbouring --seed values never
  // share an input.
  const std::uint64_t base_seed =
      opt.seed ? *opt.seed
               : scenario::parse_scenario(opt.run.scenario_text,
                                          opt.run.scenario_path)
                     .seed;
  const auto seed_of = [base_seed](std::size_t i) {
    return base_seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
  };

  // Warm-up: input 0 once, discarded from timing. Its digest is the
  // reference every later run of input 0 must reproduce.
  std::vector<std::pair<std::string, std::string>> digests;
  {
    const Iteration warm = run_iteration(opt.run, seed_of(0), nullptr);
    gate(check_iteration(warm, "", /*parse_bandwidth=*/true));
    digests = digest(warm);
  }
  std::vector<std::string> refs(kInputs);
  refs[0] = digests.back().second;

  // The timed rounds. The reference kernel runs between every two
  // iterations, so each iteration is bracketed by two of its timings.
  // Round 0 fixes each input's reference digest and reads its relay count
  // and accuracy (after its clock stops); later rounds must reproduce the
  // digest.
  double work = 0.0;  // relays x periods over one round
  int periods = 0;
  std::vector<double> abs_err, hours;
  // Per input, per round: wall times, and the same times on a core at
  // reference speed (scaled by kReferenceMs / the bracketing kernel time).
  std::vector<std::vector<double>> totals(kInputs), setups(kInputs);
  std::vector<std::vector<double>> core_totals(kInputs), core_setups(kInputs);
  std::vector<double> round_s(opt.rounds, 0.0);
  std::vector<double> reference_times{reference_ms()};
  for (std::size_t r = 0; r < opt.rounds; ++r) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      const Iteration it = run_iteration(opt.run, seed_of(i), nullptr);
      const double before_ms = reference_times.back();
      reference_times.push_back(reference_ms());
      const double scale =
          2.0 * kReferenceMs / (before_ms + reference_times.back());
      gate(check_iteration(it, refs[i], /*parse_bandwidth=*/r == 0));
      totals[i].push_back(it.total_s);
      setups[i].push_back(it.setup_s);
      core_totals[i].push_back(it.total_s * scale);
      core_setups[i].push_back(it.setup_s * scale);
      round_s[r] += it.total_s;
      if (r > 0) continue;
      refs[i] = digest(it).back().second;
      periods = it.experiment->spec().periods;
      work += static_cast<double>(it.experiment->materialized().relays.size()) *
              periods;
      for (const auto& est : it.result.final_period.relays)
        if (!est.verification_failed && !est.slot_failed)
          abs_err.push_back(std::fabs(est.relative_error));
      hours.push_back(it.result.periods.back().stats.simulated_seconds /
                      3600.0);
    }
  }
  const double rss_mib = peak_rss_mib();
  // Sums over the inputs of each one's median time.
  const auto median_sum = [](const std::vector<std::vector<double>>& times) {
    double sum = 0.0;
    for (const auto& per_input : times) sum += metrics::median(per_input);
    return sum;
  };
  const double set_s = median_sum(totals);

  out.add("relays_per_s", work / median_sum(core_totals), "1/s");
  out.add("setup_s", median_sum(core_setups) / kInputs, "s");
  out.add("peak_rss_mib", rss_mib, "MiB");
  out.add("abs_err_p50", metrics::percentile(abs_err, 50.0), "ratio", true);
  out.add("abs_err_p95", metrics::percentile(abs_err, 95.0), "ratio", true);
  out.add("network_hours", metrics::median(hours), "h", true);
  out.add("wall.relays_per_s", work / set_s, "1/s");
  out.add("wall.setup_s", median_sum(setups) / kInputs, "s");

  if (opt.trace)
    measure_layers(opt.run, seed_of(0),
                   std::max<std::size_t>(
                       1, opt.rounds * kInputs / kIterationsPerTracedPair),
                   refs[0], gate, out);

  out.add("calibration.burn_ms_start", burn_start_ms, "ms");
  out.add("calibration.burn_ms_end", burn_ms(), "ms");
  out.add("calibration.effective_cores", cores, "cores");
  out.add("calibration.reference_ms", metrics::median(reference_times),
          "ms");
  out.add("error_rate", static_cast<double>(failed) / attempted, "ratio");

  std::vector<std::string> failure_items;
  for (const auto& f : failures) failure_items.push_back(json_string(f));
  std::vector<std::pair<std::string, std::string>> digest_fields;
  for (const auto& [file, hex] : digests)
    digest_fields.emplace_back(file, json_string(hex));
  std::vector<std::pair<std::string, std::string>> metric_fields;
  std::vector<std::string> deterministic;
  for (const auto& m : out.entries) {
    metric_fields.emplace_back(
        m.name, json_object({{"value", json_number(m.value)},
                             {"unit", json_string(m.unit)}}));
    if (m.deterministic) deterministic.push_back(json_string(m.name));
  }
  std::cout << json_object(
                   {{"scenario", json_string(opt.run.scenario_path)},
                    {"correct", failed == 0 ? "true" : "false"},
                    {"attempted", std::to_string(attempted)},
                    {"failed", std::to_string(failed)},
                    {"failures", json_array(failure_items)},
                    {"seed", std::to_string(base_seed)},
                    {"inputs", std::to_string(kInputs)},
                    {"periods", std::to_string(periods)},
                    {"rounds",
                     json_object(
                         {{"count", std::to_string(round_s.size())},
                          {"p25_s",
                           json_number(metrics::percentile(round_s, 25))},
                          {"median_s", json_number(metrics::median(round_s))},
                          {"p75_s",
                           json_number(metrics::percentile(round_s, 75))},
                          {"set_s", json_number(set_s)}})},
                    {"digest", json_object(digest_fields)},
                    {"metrics", json_object(metric_fields)},
                    {"deterministic", json_array(deterministic)}})
            << std::endl;
  return failed == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "flashflow_e2e: " << e.what() << "\n";
  return 1;
}
