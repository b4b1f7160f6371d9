// Shared helpers for the experiment-reproduction binaries.
//
// Each bench binary regenerates one table or figure from the paper and
// prints the paper's reported values next to ours. These are experiment
// harnesses (they print table rows, not ns/op); microbenchmarks live in
// bench_micro.cpp.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/stats.h"
#include "metrics/table.h"

namespace flashflow::bench {

/// Shared CLI options for the experiment binaries. Every binary has a
/// deterministic default seed (the figures reproduce out of the box) that
/// `--seed` overrides for sensitivity runs; `--threads` sizes the campaign
/// engine's worker pool (0 = hardware concurrency).
struct CliOptions {
  std::uint64_t seed = 1;
  int threads = 1;
};

/// Strict whole-token integer flag parse shared by the bench binaries.
/// std::atoi cannot distinguish 0 from an error and accepts trailing
/// garbage ("2k" runs as 2); this rejects partial tokens, empty values and
/// out-of-range numbers, exiting 2 with a message naming the flag.
inline long parse_int_flag(const char* value, long min, long max,
                           const char* flag, const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || n < min || n > max) {
    std::cerr << argv0 << ": " << flag << " needs an integer in [" << min
              << ", " << max << "], got '" << value << "'\n";
    std::exit(2);
  }
  return n;
}

/// Peels `--scenario FILE` / `--scenario=FILE` out of argv (so a later
/// parse_cli never sees it) and returns the file to load, or
/// `fallback` — the binary's checked-in scenario file — when the flag is
/// absent. Mutates argc/argv in place, shifting later arguments down.
inline std::string take_scenario_flag(int& argc, char** argv,
                                      std::string fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    int consumed = 0;
    if (arg == "--scenario") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --scenario needs a file\n";
        std::exit(2);
      }
      path = argv[i + 1];
      consumed = 2;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      path = arg.substr(std::string("--scenario=").size());
      consumed = 1;
    } else {
      continue;
    }
    for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
    argc -= consumed;
    return path;
  }
  return fallback;
}

/// Parses `--seed=N`/`--seed N` and (when the binary uses the campaign
/// worker pool — `accepts_threads`) `--threads=N`/`--threads N`;
/// `--help` prints usage and exits. Unknown or malformed arguments abort
/// with an error so typos do not silently run the default experiment.
inline CliOptions parse_cli(int argc, char** argv,
                            std::uint64_t default_seed,
                            int default_threads = 1,
                            bool accepts_threads = true) {
  CliOptions options;
  options.seed = default_seed;
  options.threads = default_threads;
  const auto value_of = [&](const std::string& arg, const char* name,
                            int& i) -> const char* {
    const std::string flag = std::string("--") + name;
    if (arg == flag) {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    }
    if (arg.rfind(flag + "=", 0) == 0)
      return argv[i] + flag.size() + 1;  // skip past "--name="
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--seed N]"
                << (accepts_threads ? " [--threads N]" : "")
                << "\n  --seed     experiment seed (default " << default_seed
                << ")\n";
      if (accepts_threads)
        std::cout << "  --threads  campaign worker threads, 0 = all cores "
                     "(default "
                  << default_threads << ")\n";
      std::exit(0);
    } else if (const char* v = value_of(arg, "seed", i)) {
      char* end = nullptr;
      errno = 0;
      options.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-' || errno == ERANGE) {
        std::cerr << argv[0] << ": --seed needs a non-negative 64-bit "
                  << "integer, got '" << v << "'\n";
        std::exit(2);
      }
    } else if (const char* v2 =
                   accepts_threads ? value_of(arg, "threads", i) : nullptr) {
      options.threads = static_cast<int>(
          parse_int_flag(v2, 0, 4096, "--threads (0 = all cores)", argv[0]));
    } else {
      std::cerr << argv[0] << ": unknown argument '" << arg
                << "' (try --help)\n";
      std::exit(2);
    }
  }
  return options;
}

inline void header(const std::string& artifact, const std::string& claim) {
  metrics::print_banner(std::cout, artifact);
  std::cout << "Paper claim: " << claim << "\n\n";
}

}  // namespace flashflow::bench
