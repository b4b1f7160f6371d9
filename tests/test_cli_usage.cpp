// flashflow CLI usage-drift audit.
//
// The --help text and the argument parsers live in the same file but
// drift independently (PR 10 found `diff --quiet` parsed but
// undocumented). This suite pins them together from both directions
// using one flag table as the source of truth:
//
//   - every flag in the table appears in --help (documented),
//   - every `--flag` token printed by --help is in the table (no
//     documented-but-fictional flags),
//   - every value flag in the table is *recognized* by its subcommand:
//     invoked without a value it must die with "needs a value" — an
//     unknown flag dies with "unknown argument" instead — and every
//     switch must be consumed without an "unknown argument" complaint.
//
// Spawns the real binary (FLASHFLOW_CLI_BIN from CMake) via popen. The
// usage probes touch no file, so every invocation fails fast before any
// scenario is loaded or directory created. The CliOutputs tests run real
// scenarios into a scratch directory under the system temp dir and check
// that a result file which cannot be written in full fails the run, that
// a spec which cannot be materialized is refused without writing or
// announcing anything, and that validate names every file it refuses and
// the keys that break a rule.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_cli(const std::string& args) {
  const std::string command =
      std::string(FLASHFLOW_CLI_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.output.append(buffer.data(), n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

struct SubcommandFlags {
  const char* name;
  std::vector<const char*> value_flags;  // --flag VALUE
  std::vector<const char*> switches;     // bare --flag
};

/// The source of truth both directions are checked against. A new CLI
/// flag must be added here (and to the usage text) or this suite fails.
const std::vector<SubcommandFlags>& cli_flags() {
  static const std::vector<SubcommandFlags> table = {
      {"run",
       {"--out", "--threads", "--seed", "--trace", "--metrics"},
       {"--force", "--quiet"}},
      {"plan", {}, {}},
      {"validate", {}, {}},
      {"sweep",
       {"--out", "--seeds", "--liars", "--forgers", "--team-sizes",
        "--jobs"},
       {"--force", "--quiet"}},
      {"diff", {}, {"--quiet"}},
  };
  return table;
}

TEST(CliUsage, HelpExitsZeroAndDocumentsEveryFlag) {
  const RunResult help = run_cli("--help");
  EXPECT_EQ(help.exit_code, 0);
  for (const SubcommandFlags& sub : cli_flags()) {
    EXPECT_NE(help.output.find(sub.name), std::string::npos)
        << "subcommand '" << sub.name << "' missing from --help";
    for (const char* flag : sub.value_flags)
      EXPECT_NE(help.output.find(flag), std::string::npos)
          << sub.name << " flag " << flag << " undocumented in --help";
    for (const char* flag : sub.switches)
      EXPECT_NE(help.output.find(flag), std::string::npos)
          << sub.name << " switch " << flag << " undocumented in --help";
  }
}

TEST(CliUsage, EveryDocumentedFlagIsKnown) {
  // The inverse direction: --help must not advertise flags the parsers
  // don't implement. Collect every --token from the usage text and
  // check it against the table.
  std::set<std::string> known = {"--help"};
  for (const SubcommandFlags& sub : cli_flags()) {
    for (const char* flag : sub.value_flags) known.insert(flag);
    for (const char* flag : sub.switches) known.insert(flag);
  }

  const RunResult help = run_cli("--help");
  const std::string& text = help.output;
  for (std::size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 1)) {
    std::size_t end = pos + 2;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '-'))
      ++end;
    const std::string flag = text.substr(pos, end - pos);
    if (flag == "--") continue;  // prose dashes
    EXPECT_TRUE(known.count(flag) > 0)
        << "--help documents " << flag
        << " but tests/test_cli_usage.cpp does not know it — either the "
           "usage text is stale or the flag table needs updating";
  }
}

TEST(CliUsage, NoArgumentsPrintsUsageAndExitsTwo) {
  const RunResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage: flashflow"), std::string::npos);
}

TEST(CliUsage, UnknownCommandExitsTwo) {
  const RunResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CliUsage, UnknownFlagsAreRejectedPerSubcommand) {
  // reject_leftovers() runs before any file or directory is touched, so
  // these invocations fail fast with "unknown argument".
  const std::vector<std::string> invocations = {
      "run scenario.yaml --out out --bogus",
      "plan scenario.yaml --bogus",
      "validate scenario.yaml --bogus",
      "sweep scenario.yaml --out out --bogus",
      "diff a b --bogus",
  };
  for (const std::string& invocation : invocations) {
    const RunResult result = run_cli(invocation);
    EXPECT_EQ(result.exit_code, 2) << invocation;
    EXPECT_NE(result.output.find("unknown argument '--bogus'"),
              std::string::npos)
        << invocation << " produced: " << result.output;
  }
}

TEST(CliUsage, EveryTableValueFlagIsRecognized) {
  // A recognized value flag with no value dies "needs a value"; an
  // unrecognized one would fall through to "unknown argument". One
  // death per (subcommand, flag) pair.
  for (const SubcommandFlags& sub : cli_flags()) {
    for (const char* flag : sub.value_flags) {
      // --out parses before the other flags and its absence is fatal, so
      // the probes for later flags carry a well-formed --out.
      const std::string prefix =
          std::string(flag) == "--out" ? " scenario.yaml "
                                       : " scenario.yaml --out outdir ";
      const RunResult result = run_cli(sub.name + prefix + flag);
      SCOPED_TRACE(std::string(sub.name) + " " + flag);
      EXPECT_EQ(result.exit_code, 2);
      EXPECT_NE(result.output.find(std::string(flag) + " needs a value"),
                std::string::npos)
          << "parser did not recognize " << flag << ": " << result.output;
    }
  }
}

TEST(CliUsage, EveryTableSwitchIsConsumed) {
  // Switches have no value to omit, so recognition is proven by the
  // *absence* of an "unknown argument" complaint: the invocation still
  // fails (missing/unreadable inputs) but for a reason past argument
  // parsing.
  const std::vector<std::string> invocations = {
      "run missing-scenario.yaml --out out --force --quiet",
      "sweep missing-scenario.yaml --out out --force --quiet",
      "diff missing-dir-a missing-dir-b --quiet",
  };
  for (const std::string& invocation : invocations) {
    const RunResult result = run_cli(invocation);
    SCOPED_TRACE(invocation);
    EXPECT_NE(result.exit_code, 0);
    EXPECT_EQ(result.output.find("unknown argument"), std::string::npos)
        << "a documented switch was not consumed: " << result.output;
  }
}

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir, removed afterwards.
class ScratchDir {
 public:
  ScratchDir()
      : path_(fs::temp_directory_path() /
              ("flashflow_cli_test_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// `path` single-quoted for the shell run_cli() hands its command to.
std::string quoted(const fs::path& path) {
  std::string out = "'";
  out += path.string();
  out += '\'';
  return out;
}

std::string scenario_file(const char* name) {
  return quoted(fs::path(FLASHFLOW_REPO_DIR) / "scenarios" / name);
}

TEST(CliOutputs, RunFailsWhenBandwidthFileCannotBeCreated) {
  // A directory squatting on bandwidth.txt: every other file writes fine,
  // so only a checked open catches it.
  const ScratchDir scratch;
  const fs::path out = scratch.path() / "out";
  fs::create_directories(out / "bandwidth.txt");
  const RunResult result =
      run_cli("run " + scenario_file("quickstart.yaml") + " --out " +
              quoted(out) + " --force --quiet");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("cannot write " +
                               (out / "bandwidth.txt").string()),
            std::string::npos)
      << result.output;
}

TEST(CliOutputs, RefusedRunLeavesNoDirectory) {
  // A spec that validates but names a measurer host the topology lacks:
  // materialization refuses it before anything is written or announced,
  // so no scenario.yaml or empty result files are left behind, the
  // output never names the directory, and a second run into the same
  // directory needs no --force.
  const ScratchDir scratch;
  const fs::path spec = scratch.path() / "mars.yaml";
  std::ofstream(spec) << "flashflow_scenario: 1\n"
                         "population: table1\n"
                         "table1.rate_limits_mbit: [100]\n"
                         "team.measurers: [Mars]\n";
  EXPECT_EQ(run_cli("validate " + quoted(spec)).exit_code, 0);
  const fs::path out = scratch.path() / "out";
  const RunResult result =
      run_cli("run " + quoted(spec) + " --out " + quoted(out));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("no host named Mars"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find(out.string()), std::string::npos)
      << result.output;
  EXPECT_FALSE(fs::exists(out));
}

TEST(CliOutputs, ValidateNamesEachFileThatBreaksASemanticRule) {
  // Both files parse line by line; each breaks a rule only the whole spec
  // can check, and the diagnostic still says which file it came from.
  const ScratchDir scratch;
  const fs::path no_team = scratch.path() / "noteam.yaml";
  std::ofstream(no_team) << "flashflow_scenario: 1\n"
                            "population: synthetic\n"
                            "synthetic.relays: 5\n";
  const fs::path background = scratch.path() / "bg.yaml";
  std::ofstream(background) << "flashflow_scenario: 1\n"
                               "population: table1\n"
                               "table1.rate_limits_mbit: [100]\n"
                               "background.utilization_mean: 0.5\n";
  const RunResult result =
      run_cli("validate " + quoted(no_team) + " " + quoted(background));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(no_team.string() + ": ScenarioSpec: "),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("team capacity"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(background.string() + ": ScenarioSpec: "),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("background.enabled"), std::string::npos)
      << result.output;
}

TEST(CliOutputs, ValidateRefusesATierCountWithoutATable) {
  // Without a table, 50,000 tiers would expand to 50,000^2 table entries
  // (about 20 GB per field) in plan or run; validate refuses the file
  // first and names both keys.
  const ScratchDir scratch;
  const fs::path spec = scratch.path() / "tiers.yaml";
  std::ofstream(spec) << "flashflow_scenario: 1\n"
                         "population: synthetic\n"
                         "synthetic.relays: 4\n"
                         "team.capacity_bits: [1e9]\n"
                         "topology.path_model: tiered\n"
                         "topology.tiers: 50000\n";
  const RunResult result = run_cli("validate " + quoted(spec));
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("topology.tiers"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("topology.tier_rtt_s"), std::string::npos)
      << result.output;
}

TEST(CliOutputs, ValidateRefusesAThreadCountOutsideTheRange) {
  // The campaign's pool starts every worker thread up front, so 100,000
  // would ask the OS for 100,000 threads; validate refuses the file and
  // names the key. Only the harmless -1 is handed to `run`, which must
  // refuse it the same way before any pool exists.
  const ScratchDir scratch;
  for (const char* threads : {"100000", "-1"}) {
    SCOPED_TRACE(threads);
    const fs::path spec = scratch.path() / "threads.yaml";
    std::ofstream(spec) << "flashflow_scenario: 1\n"
                           "population: table1\n"
                           "table1.rate_limits_mbit: [100]\n"
                           "threads: "
                        << threads << "\n";
    const RunResult result = run_cli("validate " + quoted(spec));
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find(spec.string() + ": ScenarioSpec: threads"),
              std::string::npos)
        << result.output;
  }
  const fs::path out = scratch.path() / "out";
  const RunResult run = run_cli("run " + scenario_file("quickstart.yaml") +
                                " --threads -1 --out " + quoted(out));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("threads must be in [0, 4096]"),
            std::string::npos)
      << run.output;
  EXPECT_FALSE(fs::exists(out));
}

TEST(CliOutputs, RunFailsWhenAnyOutputWriteFails) {
  // /dev/full accepts the open and fails every write with ENOSPC: each
  // output file in turn points there, and the run must fail naming it
  // rather than report success over a short file.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  const ScratchDir scratch;
  const fs::path out = scratch.path() / "out";
  const fs::path trace = scratch.path() / "trace";
  const fs::path metrics = scratch.path() / "metrics.json";
  const std::vector<fs::path> outputs = {
      out / "scenario.yaml", out / "results.csv",   out / "results.jsonl",
      out / "faults.csv",    out / "bandwidth.txt", trace / "trace.jsonl",
      metrics};
  for (const fs::path& target : outputs) {
    SCOPED_TRACE(target.string());
    fs::remove_all(out);
    fs::remove_all(trace);
    fs::remove(metrics);
    fs::create_directories(target.parent_path());
    fs::create_symlink("/dev/full", target);
    const RunResult result =
        run_cli("run " + scenario_file("fault_smoke.yaml") + " --out " +
                quoted(out) + " --trace " + quoted(trace) + " --metrics " +
                quoted(metrics) + " --force --quiet");
    EXPECT_NE(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("cannot write " + target.string()),
              std::string::npos)
        << result.output;
  }
}

}  // namespace
