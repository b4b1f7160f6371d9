// flashflow — the scenario-file experiment runner.
//
// Turns a checked-in scenario file (src/scenario/serialize.h; see
// scenarios/ and README "Scenario files & CLI") into results on disk,
// without writing a line of C++:
//
//   flashflow run scenario.yaml --out dir/        stream one experiment
//   flashflow plan scenario.yaml                  schedule-only dry run
//   flashflow validate scenario.yaml [...]        parse + validate files
//   flashflow sweep scenario.yaml --out dir/ \    fan a template over a
//     --seeds 1,2 --liars 0,0.05,0.1              parameter grid
//
// `run` drives the multi-period scenario::Experiment and writes, per
// experiment directory: the normalized scenario (scenario.yaml), the
// streamed per-relay estimates (results.csv + results.jsonl), and the
// final period's Tor bandwidth file (bandwidth.txt). Everything written
// is deterministic in the scenario file alone — byte-identical across
// worker thread counts (the campaign engine's ordering guarantee) — so a
// result directory is a reproducible artifact of its scenario file.
//
// `sweep` expands the grid axes (seeds x liar fractions x forger
// fractions x team sizes) into one cell per combination, runs cells on a
// campaign::ThreadPool (cells force threads=1 internally when --jobs > 1;
// per-cell output is unaffected), and writes one result directory per
// cell named after its coordinates (e.g. seed7_liars0.05/). Cell results
// are byte-identical to `flashflow run` of the same expanded scenario:
// all randomness inside a cell derives from the cell spec's seed through
// the scenario/period_seed domain-separation scheme.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/sink.h"
#include "campaign/thread_pool.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "telemetry/telemetry.h"
#include "util/out_dir.h"
#include "util/result_diff.h"
#include "util/strict_parse.h"

namespace fs = std::filesystem;
using namespace flashflow;

namespace {

int usage(std::ostream& out, int exit_code) {
  out << "usage: flashflow <command> [args]\n"
         "\n"
         "  run <scenario> --out DIR [--threads N] [--seed N] [--force]\n"
         "      [--quiet] [--trace DIR] [--metrics FILE]\n"
         "      Run the scenario's periods; write scenario.yaml,\n"
         "      results.csv, results.jsonl, bandwidth.txt and (with\n"
         "      faults.* enabled) faults.csv into DIR. A non-empty DIR is\n"
         "      refused unless --force is passed. --trace writes a per-\n"
         "      slot execution trace (trace.jsonl) into its own DIR;\n"
         "      --metrics writes the run's engine telemetry (counters,\n"
         "      gauges, stage histograms) as JSON to FILE. Neither\n"
         "      changes a byte of the result files.\n"
         "  plan <scenario>\n"
         "      Dry run of period 0's layout (nothing is measured):\n"
         "      slots, simulated time, team requirement.\n"
         "  validate <scenario> [<scenario> ...]\n"
         "      Parse + validate every file, reporting all diagnostics;\n"
         "      exit 1 if any file is invalid.\n"
         "  sweep <scenario> --out DIR [--seeds LIST] [--liars LIST]\n"
         "        [--forgers LIST] [--team-sizes LIST] [--jobs N] "
         "[--force]\n"
         "        [--quiet]\n"
         "      Fan the scenario over the grid of the given axes; one\n"
         "      result directory per cell under DIR.\n"
         "  diff <dirA> <dirB> [--quiet]\n"
         "      Compare two result directories (results.csv,\n"
         "      results.jsonl, bandwidth.txt, faults.csv); report the\n"
         "      first differing slot per file and exit 1 when they\n"
         "      differ. --quiet suppresses the identical-directories\n"
         "      message.\n"
         "\n"
         "Scenario files: flat YAML subset, one 'key: value' per line —\n"
         "see scenarios/ and README \"Scenario files & CLI\".\n";
  return exit_code;
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "flashflow: " << message << "\n";
  std::exit(2);
}

/// argv flag scanner: --flag VALUE or --flag=VALUE; strict about values.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Consumes --name VALUE | --name=VALUE; nullopt when absent.
  std::optional<std::string> take(const std::string& name) {
    const std::string flag = "--" + name;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        if (i + 1 >= args_.size()) die(flag + " needs a value");
        std::string value = args_[i + 1];
        args_.erase(args_.begin() + i, args_.begin() + i + 2);
        return value;
      }
      if (args_[i].rfind(flag + "=", 0) == 0) {
        std::string value = args_[i].substr(flag.size() + 1);
        args_.erase(args_.begin() + i);
        return value;
      }
    }
    return std::nullopt;
  }

  /// Consumes a bare --name switch.
  bool take_switch(const std::string& name) {
    const std::string flag = "--" + name;
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// Consumes the one expected positional argument (the scenario path).
  std::string take_positional(const char* what) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) continue;
      std::string value = args_[i];
      args_.erase(args_.begin() + i);
      return value;
    }
    die(std::string("missing ") + what);
  }

  std::vector<std::string> take_all_positionals() {
    std::vector<std::string> out;
    for (const auto& a : args_)
      if (a.rfind("--", 0) != 0) out.push_back(a);
    args_.erase(std::remove_if(args_.begin(), args_.end(),
                               [](const std::string& a) {
                                 return a.rfind("--", 0) != 0;
                               }),
                args_.end());
    return out;
  }

  /// Anything left over is a typo; never run a half-understood command.
  void reject_leftovers() const {
    if (!args_.empty())
      die("unknown argument '" + args_.front() + "' (try flashflow --help)");
  }

 private:
  std::vector<std::string> args_;
};

std::vector<double> parse_double_list(const std::string& text,
                                      const std::string& flag) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    out.push_back(
        util::parse_double(text.substr(pos, comma - pos), flag));
    pos = comma + 1;
  }
  return out;
}

std::vector<std::uint64_t> parse_u64_list(const std::string& text,
                                          const std::string& flag) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    out.push_back(util::parse_u64(text.substr(pos, comma - pos), flag));
    pos = comma + 1;
  }
  return out;
}

/// An output file that fails loudly: dies naming the file when it cannot
/// be created, or when close() finds that a write to it failed (a full
/// disk, /dev/full), so a run never reports success over a short file.
class OutputFile {
 public:
  explicit OutputFile(fs::path path) : path_(std::move(path)), out_(path_) {
    if (!out_) die("cannot write " + path_.string());
  }
  std::ostream& stream() { return out_; }
  void close() {
    out_.close();
    if (!out_) die("cannot write " + path_.string());
  }

 private:
  fs::path path_;
  std::ofstream out_;
};

/// Runs one scenario into `dir` (created if needed): normalized
/// scenario.yaml, streamed results.csv/results.jsonl, final-period
/// bandwidth.txt. Returns the experiment result for reporting once every
/// file is written in full.
scenario::Experiment::Result run_into_dir(
    const scenario::ScenarioSpec& spec, const fs::path& dir, bool quiet,
    telemetry::Recorder* recorder = nullptr,
    const std::string* trace_dir = nullptr) {
  // Materializes (and validates) the spec before anything touches the
  // disk or names the directory, so a refused spec leaves no directory
  // behind and announces none.
  scenario::Experiment experiment(spec);
  if (recorder) experiment.set_telemetry(recorder);
  if (!quiet)
    std::cout << "running '" << spec.name << "' (" << spec.periods
              << " period" << (spec.periods == 1 ? "" : "s") << ") -> "
              << dir.string() << "\n";
  fs::create_directories(dir);

  // The normalized spec first: the directory documents what produced it
  // even if the run is interrupted.
  OutputFile spec_out(dir / "scenario.yaml");
  spec_out.stream() << scenario::serialize_scenario(spec);
  spec_out.close();

  OutputFile csv_out(dir / "results.csv");
  OutputFile jsonl_out(dir / "results.jsonl");
  campaign::CsvSink csv(csv_out.stream());
  campaign::JsonlSink jsonl(jsonl_out.stream());

  // The fault ledger exists only for fault-armed scenarios, so fault-free
  // result directories keep their exact pre-fault file set.
  std::optional<OutputFile> faults_out;
  std::optional<campaign::FaultLedgerSink> faults;
  if (spec.faults.enabled())
    faults.emplace(faults_out.emplace(dir / "faults.csv").stream());

  // The slot trace lives in its own directory so result directories stay
  // byte-comparable with `flashflow diff` (trace rows carry wall-clock
  // and lane fields that legitimately differ between runs).
  std::optional<OutputFile> trace_out;
  std::optional<campaign::TraceJsonlSink> trace;
  if (recorder && recorder->trace_enabled() && trace_dir) {
    fs::create_directories(*trace_dir);
    trace.emplace(
        trace_out.emplace(fs::path(*trace_dir) / "trace.jsonl").stream());
  }

  campaign::FanoutSink fanout{&csv, &jsonl, faults ? &*faults : nullptr,
                              trace ? &*trace : nullptr};

  const auto result = experiment.run(
      &fanout, [&](const scenario::Experiment::PeriodRecord& record,
                   const campaign::CampaignResult&) {
        if (quiet) return;
        std::cout << "  period " << record.period << ": "
                  << record.summary.relays_measured << " relays in "
                  << record.stats.slots_executed << " slots, total "
                  << net::to_gbit(record.summary.total_estimated_bits)
                  << " Gbit/s est (true "
                  << net::to_gbit(record.summary.total_true_bits)
                  << "), median |err| "
                  << record.summary.median_abs_relative_error * 100
                  << "%\n";
      });

  csv_out.close();
  jsonl_out.close();
  if (faults_out) faults_out->close();
  if (trace_out) trace_out->close();
  if (!result.cancelled && !result.periods.empty()) {
    OutputFile bw_out(dir / "bandwidth.txt");
    bw_out.stream() << experiment.bandwidth_file_text(
        static_cast<int>(result.periods.size()) - 1, result.final_period);
    bw_out.close();
  }
  return result;
}

// ---------------------------------------------------------------- commands ---

int cmd_run(Flags& flags) {
  const std::string path = flags.take_positional("scenario file");
  const auto out = flags.take("out");
  if (!out) die("run needs --out DIR");
  const auto threads = flags.take("threads");
  const auto seed = flags.take("seed");
  const auto trace_dir = flags.take("trace");
  const auto metrics_path = flags.take("metrics");
  const bool force = flags.take_switch("force");
  const bool quiet = flags.take_switch("quiet");
  flags.reject_leftovers();
  util::require_empty_dir(*out, force);

  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  if (threads)
    spec.threads = util::parse_int(*threads, "flag '--threads'");
  if (seed) spec.seed = util::parse_u64(*seed, "flag '--seed'");

  // Telemetry is strictly additive: the recorder observes the run (and
  // --trace additionally attaches per-slot trace rows) without changing a
  // byte of the result files.
  std::optional<telemetry::Recorder> recorder;
  if (trace_dir || metrics_path) {
    recorder.emplace();
    if (trace_dir) recorder->enable_trace();
  }

  const auto result =
      run_into_dir(spec, *out, quiet, recorder ? &*recorder : nullptr,
                   trace_dir ? &*trace_dir : nullptr);
  if (metrics_path) {
    OutputFile metrics_out(*metrics_path);
    recorder->write_metrics(metrics_out.stream());
    metrics_out.close();
  }
  if (result.cancelled) {
    std::cerr << "flashflow: run cancelled mid-experiment\n";
    return 1;
  }
  if (!quiet) std::cout << "wrote " << *out << "\n";
  return 0;
}

int cmd_plan(Flags& flags) {
  const std::string path = flags.take_positional("scenario file");
  flags.reject_leftovers();

  const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  const auto plan = scenario::plan(spec);
  std::cout << "scenario '" << spec.name << "':\n"
            << "  relays               : " << plan.relays << "\n"
            << "  total prior          : "
            << net::to_gbit(plan.total_prior_bits) << " Gbit/s\n"
            << "  team capacity        : "
            << net::to_gbit(plan.team_capacity_bits) << " Gbit/s\n"
            << "  requirement (f * z0) : "
            << net::to_gbit(plan.total_requirement_bits) << " Gbit/s\n"
            << "  slots in period      : " << plan.slots_in_period << "\n"
            << "  slots used           : " << plan.slots_used << "\n"
            << "  simulated time       : " << plan.simulated_seconds / 3600.0
            << " h (" << plan.simulated_seconds << " s)\n";
  return 0;
}

int cmd_validate(Flags& flags) {
  const std::vector<std::string> paths = flags.take_all_positionals();
  flags.reject_leftovers();
  if (paths.empty()) die("validate needs at least one scenario file");

  // Every file is checked regardless of earlier failures: one run
  // surfaces every diagnostic, and the exit code says whether any failed.
  int failures = 0;
  for (const auto& check : scenario::check_scenario_files(paths)) {
    if (check.ok) {
      std::cout << check.path << ": ok (scenario '" << check.name << "')\n";
    } else {
      std::cerr << check.detail << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

/// One sweep cell: the expanded spec and its directory name, built from
/// the swept coordinates only (un-swept axes keep the template's values
/// and stay out of the name).
struct SweepCell {
  scenario::ScenarioSpec spec;
  std::string label;
};

int cmd_sweep(Flags& flags) {
  const std::string path = flags.take_positional("scenario file");
  const auto out = flags.take("out");
  if (!out) die("sweep needs --out DIR");
  const auto seeds_arg = flags.take("seeds");
  const auto liars_arg = flags.take("liars");
  const auto forgers_arg = flags.take("forgers");
  const auto teams_arg = flags.take("team-sizes");
  const auto jobs_arg = flags.take("jobs");
  const bool force = flags.take_switch("force");
  const bool quiet = flags.take_switch("quiet");
  flags.reject_leftovers();
  util::require_empty_dir(*out, force);

  const scenario::ScenarioSpec base = scenario::load_scenario_file(path);
  const int jobs =
      jobs_arg ? util::parse_int(*jobs_arg, "flag '--jobs'") : 1;
  if (jobs < 1 || jobs > 4096) die("--jobs needs an integer in [1, 4096]");

  // Absent axes collapse to the template's own value — the grid is always
  // the full cross product of what was asked for.
  const std::vector<std::uint64_t> seeds =
      seeds_arg ? parse_u64_list(*seeds_arg, "flag '--seeds'")
                : std::vector<std::uint64_t>{base.seed};
  const std::vector<double> liars =
      liars_arg ? parse_double_list(*liars_arg, "flag '--liars'")
                : std::vector<double>{base.adversaries.liar_fraction};
  const std::vector<double> forgers =
      forgers_arg ? parse_double_list(*forgers_arg, "flag '--forgers'")
                  : std::vector<double>{base.adversaries.forger_fraction};
  std::vector<int> team_sizes;
  if (teams_arg) {
    if (base.team.capacity_bits.empty())
      die("--team-sizes needs team capacity overrides in the template "
          "(the size axis replicates the first override)");
    for (const std::uint64_t n :
         parse_u64_list(*teams_arg, "flag '--team-sizes'")) {
      if (n < 1 || n > 4096)
        die("--team-sizes entries must be in [1, 4096]");
      team_sizes.push_back(static_cast<int>(n));
    }
  }

  std::vector<SweepCell> cells;
  for (const std::uint64_t seed : seeds) {
    for (const double liar : liars) {
      for (const double forger : forgers) {
        for (std::size_t t = 0; t < std::max<std::size_t>(
                                        1, team_sizes.size());
             ++t) {
          SweepCell cell;
          cell.spec = base;
          cell.spec.seed = seed;
          cell.spec.adversaries.liar_fraction = liar;
          cell.spec.adversaries.forger_fraction = forger;
          if (!team_sizes.empty()) {
            cell.spec.team.capacity_bits.assign(
                static_cast<std::size_t>(team_sizes[t]),
                base.team.capacity_bits.front());
          }
          if (seeds_arg) cell.label += "seed" + std::to_string(seed);
          if (liars_arg)
            cell.label += (cell.label.empty() ? "" : "_") + std::string(
                              "liars") + util::format_double(liar);
          if (forgers_arg)
            cell.label += (cell.label.empty() ? "" : "_") + std::string(
                              "forgers") + util::format_double(forger);
          if (!team_sizes.empty())
            cell.label += (cell.label.empty() ? "" : "_") + std::string(
                              "team") + std::to_string(team_sizes[t]);
          if (cell.label.empty()) cell.label = "cell";
          // Each cell validates up front so a bad grid value (liars 1.5)
          // fails before any cell has run.
          cell.spec.validate();
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  if (!quiet)
    std::cout << "sweeping '" << base.name << "' over " << cells.size()
              << " cell" << (cells.size() == 1 ? "" : "s") << " ("
              << jobs << " job" << (jobs == 1 ? "" : "s") << ") -> "
              << *out << "\n";

  // Cells parallelize across the pool; inside a cell the campaign runs
  // single-threaded when jobs > 1 so a sweep never oversubscribes the
  // machine. Per-cell bytes are identical either way (the engine's
  // thread-count-independence guarantee).
  if (jobs > 1)
    for (auto& cell : cells) cell.spec.threads = 1;

  campaign::ThreadPool pool(jobs);
  pool.parallel_for(cells.size(), /*shard_size=*/1,
                    [&](std::size_t, std::size_t i) {
                      run_into_dir(cells[i].spec, fs::path(*out) /
                                                     cells[i].label,
                                   /*quiet=*/true);
                    });

  for (const auto& cell : cells)
    if (!quiet) std::cout << "  " << cell.label << "/\n";
  if (!quiet)
    std::cout << "wrote " << cells.size() << " result director"
              << (cells.size() == 1 ? "y" : "ies") << " under " << *out
              << "\n";
  return 0;
}

int cmd_diff(Flags& flags) {
  const std::string dir_a = flags.take_positional("first result directory");
  const std::string dir_b = flags.take_positional("second result directory");
  const bool quiet = flags.take_switch("quiet");
  flags.reject_leftovers();

  const auto result = util::diff_result_dirs(dir_a, dir_b);
  if (result.identical) {
    if (!quiet) std::cout << dir_a << " and " << dir_b << " are identical\n";
    return 0;
  }
  for (const auto& diff : result.differences)
    std::cerr << diff.file << ": " << diff.message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help")
    return usage(std::cout, 0);

  Flags flags(argc, argv, 2);
  try {
    if (command == "run") return cmd_run(flags);
    if (command == "plan") return cmd_plan(flags);
    if (command == "validate") return cmd_validate(flags);
    if (command == "sweep") return cmd_sweep(flags);
    if (command == "diff") return cmd_diff(flags);
  } catch (const std::exception& e) {
    std::cerr << "flashflow: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "flashflow: unknown command '" << command
            << "' (try --help)\n";
  return 2;
}
