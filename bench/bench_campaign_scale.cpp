// Campaign-scale throughput benchmark: how fast does the measurement
// engine chew through a full-network population on this machine?
//
// Runs the §7-style synthetic population (lognormal capacity mixture,
// 3 x 1 Gbit/s measurers, greedy packing) at ~500 / 2,000 / 6,419 relays
// through the streaming campaign engine and reports, per size:
//
//   slots/sec                 executed slots per wall-clock second,
//   sim-seconds/wall-second   simulated measurement time per wall second,
//   peak RSS                  ru_maxrss after the run (process-wide, so it
//                             is monotone across the sizes of one invocation).
//
// --thread-sweep 1,2,4,8 repeats every size at each worker-thread count
// and reports scaling efficiency (speedup over the sweep's own 1-thread
// run); that is the number the sharded dispatch tentpole is judged by.
//
// Results append the perf trajectory in BENCH_campaign.json (see README
// "Performance"); CI runs the small size as a smoke test (with a 1,2
// sweep) and uploads the JSON as an artifact.
//
// This is a throughput harness, not a figure reproduction: a one-period
// scenario::Experiment streams into a sink that only counts slots (beside
// the experiment's own per-relay aggregate), record_outcomes stays off,
// and the population/seed are fixed so numbers compare across commits run
// on the same machine.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.h"
#include "campaign/campaign.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "telemetry/telemetry.h"

using namespace flashflow;

namespace {

/// Resident-set high-water mark in MiB (0 where unsupported).
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0.0;
#endif
}

/// Slot counter with no aggregation: the sink must not show up in the
/// profile, the campaign engine should.
struct CountingSink : campaign::SlotSink {
  int slots = 0;
  std::size_t relays = 0;
  void slot_done(const campaign::SlotResult& slot) override {
    ++slots;
    relays += slot.estimates.size();
  }
};

struct SizeResult {
  int relays = 0;
  int threads = 1;
  /// A telemetry::Recorder was attached for this run (overhead probing;
  /// the engine output is byte-identical either way).
  bool telemetry = false;
  campaign::RunStats stats;
  double slots_per_second = 0.0;
  double sim_per_wall = 0.0;
  double rss_mib = 0.0;
  /// slots/sec over the same invocation's 1-thread run of this size;
  /// 0 when the sweep has no 1-thread baseline.
  double speedup_vs_1t = 0.0;
};

SizeResult run_size_once(int relays, std::uint64_t seed, int threads,
                         bool telemetry_on) {
  // July-2019-like capacity mixture (bench_sec7): largest 998 Mbit/s,
  // whole-network total ~608 Gbit/s at 6,419 relays.
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.42;
  pop.lognormal_sigma = 1.45;
  pop.max_capacity_bits = 998e6;
  const scenario::ScenarioSpec spec{
      .name = "campaign-scale",
      .population =
          scenario::SyntheticPopulationSpec{.params = pop, .relays = relays},
      .team = {.capacity_bits = {net::gbit(1), net::gbit(1), net::gbit(1)}},
      .threads = threads,
      .seed = seed};
  scenario::Experiment experiment(spec);

  // The recorder exists only to measure instrumentation overhead: with
  // telemetry on the engine takes the guarded branches, with it off the
  // pre-telemetry instruction stream — results are identical either way.
  telemetry::Recorder recorder;
  if (telemetry_on) experiment.set_telemetry(&recorder);

  CountingSink sink;
  SizeResult result;
  result.relays = relays;
  result.threads = threads;
  result.telemetry = telemetry_on;
  result.stats = experiment.run(&sink).periods.front().stats;
  if (result.stats.wall_seconds > 0.0) {
    result.slots_per_second =
        static_cast<double>(result.stats.slots_executed) /
        result.stats.wall_seconds;
    result.sim_per_wall =
        result.stats.simulated_seconds / result.stats.wall_seconds;
  }
  result.rss_mib = peak_rss_mib();
  return result;
}

/// Best-of-N (highest slots/sec): individual runs are short enough that a
/// scheduler hiccup visibly dents one sample, and the fastest run is the
/// least-interfered measurement of the engine itself.
SizeResult run_size(int relays, std::uint64_t seed, int threads,
                    int repeats, bool telemetry_on) {
  SizeResult best = run_size_once(relays, seed, threads, telemetry_on);
  for (int rep = 1; rep < repeats; ++rep) {
    SizeResult next = run_size_once(relays, seed, threads, telemetry_on);
    if (next.slots_per_second > best.slots_per_second) best = next;
  }
  return best;
}

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<int>& thread_counts, int repeats,
                const std::vector<SizeResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_campaign_scale: cannot write " << path << "\n";
    std::exit(1);
  }
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"bench_campaign_scale\",\n"
      << "  \"schema\": 6,\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    out << thread_counts[i] << (i + 1 < thread_counts.size() ? ", " : "");
  out << "],\n"
      << "  \"repeats\": " << repeats << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"relays\": " << r.relays << ", \"threads\": " << r.threads
        << ", \"slots_in_period\": " << r.stats.slots_in_period
        << ", \"slots_executed\": " << r.stats.slots_executed
        << ", \"wall_seconds\": " << r.stats.wall_seconds
        << ", \"slots_per_second\": " << r.slots_per_second
        << ", \"speedup_vs_1t\": " << r.speedup_vs_1t
        << ", \"simulated_seconds\": " << r.stats.simulated_seconds
        << ", \"sim_seconds_per_wall_second\": " << r.sim_per_wall
        << ", \"peak_rss_mib\": " << r.rss_mib
        << ", \"telemetry\": " << (r.telemetry ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Parses "1,2,4" into thread counts; exits on junk (including trailing
/// garbage inside a token — "2x4" is a typo, not a 2).
std::vector<int> parse_thread_list(const char* arg, const char* flag) {
  std::vector<int> counts;
  std::string list = arg;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string token = list.substr(pos, comma - pos);
    char* end = nullptr;
    const long n = std::strtol(token.c_str(), &end, 10);
    if (token.empty() || *end != '\0' || n <= 0 || n > 256) {
      std::cerr << "bench_campaign_scale: " << flag
                << " needs comma-separated thread counts in [1, 256], got '"
                << arg << "'\n";
      std::exit(2);
    }
    counts.push_back(static_cast<int>(n));
    pos = comma + 1;
  }
  return counts;
}

/// Worker threads the engine will actually use for a <= 0 flag value
/// (mirrors campaign::ThreadPool's hardware-concurrency fallback), so the
/// recorded JSON rows carry comparable real counts, never a raw 0.
int resolved_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Bench-specific flags are peeled off before the shared parse_cli pass
  // (which owns --seed/--threads and rejects anything it does not know).
  std::vector<int> sizes = {500, 2000, 6419};
  std::string out_path = "BENCH_campaign.json";
  int repeats = 3;
  bool telemetry_on = false;
  std::vector<int> sweep;  // empty: single thread count from --threads
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::string name = flag;
      if (arg == name) {
        if (i + 1 >= argc) {
          std::cerr << argv[0] << ": " << name << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      }
      if (arg.rfind(name + "=", 0) == 0) return argv[i] + name.size() + 1;
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--seed N] [--threads N] [--thread-sweep LIST]"
                   " [--relays N] [--repeat N] [--out FILE]\n"
                   "       [--telemetry]\n"
                   "  --seed         population/campaign seed (default "
                   "20210613)\n"
                   "  --threads      campaign worker threads, 0 = all cores "
                   "(default 1)\n"
                   "  --thread-sweep comma-separated thread counts (e.g. "
                   "1,2,4,8); runs every\n"
                   "                 size at each count and reports speedup "
                   "over the sweep's\n"
                   "                 1-thread run (overrides --threads)\n"
                   "  --relays       run a single population size instead "
                   "of 500/2000/6419\n"
                   "  --repeat       samples per size, best kept (default "
                   "3)\n"
                   "  --out          JSON output path (default "
                   "BENCH_campaign.json)\n"
                   "  --telemetry    attach an engine telemetry recorder "
                   "during runs\n"
                   "                 (measures instrumentation overhead; "
                   "results are\n"
                   "                 byte-identical either way)\n";
      return 0;
    } else if (arg == "--telemetry") {
      telemetry_on = true;
    } else if (const char* vs = value("--thread-sweep")) {
      sweep = parse_thread_list(vs, "--thread-sweep");
    } else if (const char* vr = value("--repeat")) {
      // Strict parse (bench::parse_int_flag): atoi would run "1O0" as 1
      // and could not tell 0 from garbage.
      repeats = static_cast<int>(
          bench::parse_int_flag(vr, 1, 100, "--repeat", argv[0]));
    } else if (const char* v = value("--relays")) {
      sizes = {static_cast<int>(
          bench::parse_int_flag(v, 1, 1000000, "--relays", argv[0]))};
    } else if (const char* v2 = value("--out")) {
      out_path = v2;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const auto cli =
      bench::parse_cli(static_cast<int>(passthrough.size()),
                       passthrough.data(), /*default_seed=*/20210613,
                       /*default_threads=*/1);

  bench::header("Campaign-scale throughput",
                "engine throughput trajectory: slots/sec, simulated seconds "
                "per wall second, and thread scaling at full-network scale");

  const std::vector<int> thread_counts =
      sweep.empty() ? std::vector<int>{resolved_threads(cli.threads)} : sweep;

  std::vector<SizeResult> results;
  for (const int relays : sizes) {
    const std::size_t size_begin = results.size();
    for (const int threads : thread_counts) {
      const auto r =
          run_size(relays, cli.seed, threads, repeats, telemetry_on);
      results.push_back(r);
      std::cout << "  " << r.relays << " relays @ " << r.threads
                << " threads: " << metrics::Table::num(r.slots_per_second, 1)
                << " slots/sec (" << r.stats.slots_executed << " slots in "
                << metrics::Table::num(r.stats.wall_seconds, 2) << " s)\n";
    }
    // Scaling efficiency once the whole size is in, so a sweep that lists
    // 1 anywhere (not just first) yields a baseline for every row.
    double one_thread_slots_per_sec = 0.0;
    for (std::size_t i = size_begin; i < results.size(); ++i)
      if (results[i].threads == 1)
        one_thread_slots_per_sec = results[i].slots_per_second;
    if (one_thread_slots_per_sec > 0.0)
      for (std::size_t i = size_begin; i < results.size(); ++i)
        results[i].speedup_vs_1t =
            results[i].slots_per_second / one_thread_slots_per_sec;
  }

  metrics::Table table({"relays", "threads", "slots", "wall (s)", "slots/sec",
                        "speedup", "sim-s/wall-s", "peak RSS (MiB)"});
  for (const auto& r : results) {
    table.add_row({std::to_string(r.relays), std::to_string(r.threads),
                   std::to_string(r.stats.slots_executed),
                   metrics::Table::num(r.stats.wall_seconds, 2),
                   metrics::Table::num(r.slots_per_second, 1),
                   r.speedup_vs_1t > 0.0
                       ? metrics::Table::num(r.speedup_vs_1t, 2) + "x"
                       : "-",
                   metrics::Table::num(r.sim_per_wall, 0),
                   metrics::Table::num(r.rss_mib, 0)});
  }
  std::cout << "\n";
  table.print(std::cout);

  write_json(out_path, cli.seed, thread_counts, repeats, results);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
