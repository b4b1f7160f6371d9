// Documentation staleness tests.
//
// docs/scenario-reference.md claims to document every scenario-file key.
// That claim is only worth something if it is enforced: this suite
// serializes fully-populated specs for all three population variants
// (plus every optional section) and fails if any emitted key is missing
// from the page — so adding a key without documenting it breaks the
// build, not a user. docs/result-files.md gets the same treatment from
// the result sinks' column tables and the engine's metric names.
// Further tests keep the relative links inside docs/ and README.md
// pointing at files that exist, hold src/ to docs/ARCHITECTURE.md's
// rules that dependencies point downward and that every header has a
// user outside the tests, and keep docs/determinism.md's inventory of
// suppressions equal to the markers in src/.
//
// FLASHFLOW_REPO_DIR is injected by CMake so the suite finds the
// checked-in markdown from any build directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/sink.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "telemetry/telemetry.h"

namespace flashflow {
namespace {

namespace fs = std::filesystem;

fs::path repo_dir() { return fs::path(FLASHFLOW_REPO_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The paths a file names in its `#include "..."` lines, in order.
std::vector<std::string> quoted_includes(const fs::path& path) {
  const std::string prefix = "#include \"";
  std::vector<std::string> includes;
  std::istringstream lines(read_file(path));
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(prefix, 0) == 0)
      includes.push_back(line.substr(
          prefix.size(), line.find('"', prefix.size()) - prefix.size()));
  return includes;
}

/// Specs that together exercise every branch of serialize_scenario():
/// all three populations, topology, faults, team, adversaries,
/// background and params sections.
std::vector<scenario::ScenarioSpec> fully_populated_specs() {
  std::vector<scenario::ScenarioSpec> specs;

  {
    scenario::ScenarioSpec spec;
    scenario::Table1PopulationSpec table1;
    table1.rate_limit_mbit = {10, 25};
    table1.background_mbit = 5;
    table1.prior_mbit = 20;
    spec.population = table1;
    spec.name = "docs-table1";
    specs.push_back(std::move(spec));
  }
  {
    scenario::ScenarioSpec spec;
    spec.population = scenario::ShadowPopulationSpec{};
    spec.name = "docs-shadow";
    specs.push_back(std::move(spec));
  }
  {
    scenario::ScenarioSpec spec;
    scenario::SyntheticPopulationSpec synthetic;
    synthetic.relays = 40;
    synthetic.prior_fraction = 0.8;
    spec.population = synthetic;
    spec.team.capacity_bits = {8e8, 8e8, 8e8};
    spec.topology.tiers = 2;
    spec.topology.tier_rtt_s = {0.02, 0.065, 0.02};
    spec.topology.rtt_jitter = 0.1;
    spec.faults.measurer_crash = 0.01;
    spec.faults.relay_disconnect = 0.01;
    spec.faults.report_drop = 0.01;
    spec.faults.report_truncate = 0.01;
    spec.faults.slot_timeout = 0.01;
    spec.adversaries.liar_fraction = 0.1;
    spec.adversaries.forger_fraction = 0.1;
    spec.background.enabled = true;
    spec.background.utilization_mean = 0.2;
    spec.background.utilization_sd = 0.1;
    spec.name = "docs-synthetic";
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Keys a serialized scenario file emits: the text before ':' on every
/// non-comment, non-empty line.
void serialized_keys(const scenario::ScenarioSpec& spec,
                     std::vector<std::string>& keys) {
  std::istringstream lines(scenario::serialize_scenario(spec));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t colon = line.find(':');
    ASSERT_NE(colon, std::string::npos) << "key-less line: " << line;
    keys.push_back(line.substr(0, colon));
  }
}

TEST(DocsStaleness, ScenarioReferenceDocumentsEverySerializedKey) {
  const std::string doc =
      read_file(repo_dir() / "docs" / "scenario-reference.md");
  ASSERT_FALSE(doc.empty());

  int checked = 0;
  for (const scenario::ScenarioSpec& spec : fully_populated_specs()) {
    std::vector<std::string> keys;
    serialized_keys(spec, keys);
    ASSERT_FALSE(keys.empty());
    for (const std::string& key : keys) {
      // Keys are referenced in backticks so a prose mention of a word
      // like "name" cannot mask an undocumented `faults.name`.
      EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
          << "scenario key '" << key
          << "' is serialized by src/scenario/serialize.cpp but not "
             "documented in docs/scenario-reference.md";
      ++checked;
    }
  }
  // All three populations plus the optional sections: a meaningful sweep,
  // not an accidentally-empty loop.
  EXPECT_GE(checked, 50);
}

TEST(DocsStaleness, ResultReferenceNamesEveryEngineMetric) {
  // `flashflow run --metrics` writes every engine metric, zeros
  // included; the page names each one.
  const std::string doc = read_file(repo_dir() / "docs" / "result-files.md");
  ASSERT_FALSE(doc.empty());
  const telemetry::Snapshot snap = telemetry::Recorder().snapshot();
  std::vector<std::string> names;
  for (const auto& entry : snap.counters) names.push_back(entry.first);
  for (const auto& entry : snap.gauges) names.push_back(entry.first);
  for (const auto& entry : snap.histograms) names.push_back(entry.first);
  for (const std::string& name : names)
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "engine metric '" << name
        << "' is written by --metrics but not named in "
           "docs/result-files.md";
  EXPECT_GE(names.size(), 20u);
}

TEST(DocsStaleness, ResultReferenceDocumentsEveryColumn) {
  // Each result file's section of the page carries one table row per
  // column of its schema, and the rows of the fault-gated columns (and
  // only those) say when they are written.
  const std::string doc = read_file(repo_dir() / "docs" / "result-files.md");
  ASSERT_FALSE(doc.empty());
  struct ResultFile {
    const char* name;
    const campaign::RowSchema& schema;
  };
  const ResultFile files[] = {
      {"results.csv", campaign::results_schema()},
      {"faults.csv", campaign::fault_ledger_schema()},
      {"trace.jsonl", campaign::trace_schema()},
  };
  int checked = 0;
  for (const ResultFile& file : files) {
    const std::size_t start = doc.find("\n## `" + std::string(file.name));
    ASSERT_NE(start, std::string::npos)
        << "docs/result-files.md has no section for " << file.name;
    const std::string section =
        doc.substr(start, doc.find("\n## ", start + 1) - start);
    for (std::size_t c = 0; c < file.schema.columns.size(); ++c) {
      const std::string name = file.schema.columns[c].name;
      const std::size_t row = section.find("\n| `" + name + "` |");
      EXPECT_NE(row, std::string::npos)
          << file.name << " column '" << name
          << "' is written by src/campaign/sink.cpp but not documented in "
             "docs/result-files.md";
      if (row == std::string::npos) continue;
      const std::string line =
          section.substr(row + 1, section.find('\n', row + 1) - row - 1);
      EXPECT_EQ(line.find("faults armed") != std::string::npos,
                c >= file.schema.fault_columns_begin)
          << "docs/result-files.md misstates when " << file.name
          << " column '" << name << "' is written: " << line;
      ++checked;
    }
  }
  EXPECT_GE(checked, 30);
}

TEST(DocsStaleness, ModuleIncludeGraphIsAcyclic) {
  // docs/ARCHITECTURE.md: "Dependencies point downward only." Module A
  // depends on module B when a file in src/A/ includes "B/...".
  const fs::path src = repo_dir() / "src";
  std::set<std::string> modules;
  for (const fs::directory_entry& entry : fs::directory_iterator(src))
    if (entry.is_directory())
      modules.insert(entry.path().filename().string());
  ASSERT_GE(modules.size(), 10u);

  // module -> dependency -> the first file seen making the edge.
  std::map<std::string, std::map<std::string, std::string>> deps;
  int edges = 0;
  for (const std::string& module : modules) {
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(src / module)) {
      if (!entry.is_regular_file()) continue;
      for (const std::string& include : quoted_includes(entry.path())) {
        const std::size_t slash = include.find('/');
        if (slash == std::string::npos) continue;
        const std::string dep = include.substr(0, slash);
        if (dep == module || !modules.count(dep)) continue;
        edges += deps[module]
                     .emplace(dep, module + "/" +
                                       entry.path().filename().string())
                     .second;
      }
    }
  }
  EXPECT_GE(edges, 20) << "include scan found almost no module edges";

  // Depth-first search: an edge back into the current path closes a cycle.
  std::map<std::string, int> state;  // 0 unvisited, 1 on path, 2 done
  std::vector<std::string> path;
  std::vector<std::string> cycles;
  const std::function<void(const std::string&)> visit =
      [&](const std::string& module) {
        state[module] = 1;
        path.push_back(module);
        for (const auto& [dep, file] : deps[module]) {
          if (state[dep] == 1) {
            std::string cycle;
            for (auto it = std::find(path.begin(), path.end(), dep);
                 it != path.end(); ++it) {
              const std::string& next =
                  it + 1 == path.end() ? dep : *(it + 1);
              if (!cycle.empty()) cycle += ", ";
              cycle += *it + " -> " + next + " (" + deps[*it][next] + ")";
            }
            cycles.push_back(cycle);
          } else if (state[dep] == 0) {
            visit(dep);
          }
        }
        path.pop_back();
        state[module] = 2;
      };
  for (const std::string& module : modules)
    if (state[module] == 0) visit(module);
  for (const std::string& cycle : cycles)
    ADD_FAILURE() << "src/ module include cycle: " << cycle;
}

TEST(DocsStaleness, EverySourceHeaderIsReachedFromAProgram) {
  // docs/ARCHITECTURE.md: every src/ header has a user outside the tests.
  // The roots are the programs' own files, the same ones
  // tools/check_reachability.sh links: a microbenchmark does not make a
  // module needed, so bench_micro is not a root. A quoted include leads
  // into src/, and a reached src/X/Y.h also brings in src/X/Y.cpp's
  // includes.
  const fs::path src = repo_dir() / "src";
  const fs::path microbench = repo_dir() / "bench" / "bench_micro.cpp";
  std::vector<fs::path> pending;
  for (const char* dir : {"tools", "bench", "examples"})
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(repo_dir() / dir))
      if ((entry.path().extension() == ".cpp" ||
           entry.path().extension() == ".h") &&
          entry.path() != microbench)
        pending.push_back(entry.path());
  ASSERT_GE(pending.size(), 25u) << "found almost no program sources";

  std::set<std::string> reached;  // relative to src/, e.g. "core/bwauth.h"
  while (!pending.empty()) {
    const fs::path file = pending.back();
    pending.pop_back();
    for (const std::string& header : quoted_includes(file)) {
      if (!fs::is_regular_file(src / header) ||
          !reached.insert(header).second)
        continue;
      pending.push_back(src / header);
      const fs::path source = (src / header).replace_extension(".cpp");
      if (fs::is_regular_file(source)) pending.push_back(source);
    }
  }

  std::set<std::string> headers;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(src))
    if (entry.path().extension() == ".h")
      headers.insert(fs::relative(entry.path(), src).generic_string());
  ASSERT_GE(headers.size(), 50u) << "src/ tree is missing headers";
  for (const std::string& header : headers)
    EXPECT_TRUE(reached.count(header))
        << "src/" << header
        << " is reached only from tests: wire it into a program under "
           "tools/, bench/ or examples/, or delete it";
}

TEST(DocsStaleness, RelativeLinksInDocsResolve) {
  std::vector<fs::path> pages = {repo_dir() / "README.md"};
  for (const fs::directory_entry& entry :
       fs::directory_iterator(repo_dir() / "docs"))
    if (entry.path().extension() == ".md") pages.push_back(entry.path());
  ASSERT_GE(pages.size(), 5u) << "docs/ tree is missing pages";

  const std::regex link("\\]\\(([^)]+)\\)");
  int checked = 0;
  for (const fs::path& page : pages) {
    const std::string text = read_file(page);
    for (std::sregex_iterator it(text.begin(), text.end(), link), end;
         it != end; ++it) {
      std::string target = (*it)[1].str();
      if (target.rfind("http", 0) == 0) continue;  // external
      const std::size_t fragment = target.find('#');
      if (fragment != std::string::npos) target.resize(fragment);
      if (target.empty()) continue;  // same-page anchor
      EXPECT_TRUE(fs::exists(page.parent_path() / target))
          << page.filename() << " links to missing " << target;
      ++checked;
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(DocsStaleness, DeterminismPageNamesTheSuppressionRules) {
  // ffcheck's FF02 message points readers at docs/determinism.md; the
  // page must keep explaining the suppression format and the single
  // sanctioned ND03 site.
  const std::string doc = read_file(repo_dir() / "docs" / "determinism.md");
  EXPECT_NE(doc.find("FFCHECK(ND03)"), std::string::npos);
  EXPECT_NE(doc.find("telemetry/clock.cpp"), std::string::npos);
  EXPECT_NE(doc.find("FF02"), std::string::npos);
}

TEST(DocsStaleness, DeterminismPageNamesEverySuppression) {
  // docs/determinism.md inventories the library's suppressions, one table
  // row per (file, rule), and the `// FFCHECK(...)` markers under src/
  // must name exactly those pairs: a new justified suppression cannot
  // arrive unseen. Lint's own prose spells the syntax with placeholders
  // (`FFCHECK(RULE)`), which name no rule.
  using Pairs = std::set<std::pair<std::string, std::string>>;
  const std::string doc = read_file(repo_dir() / "docs" / "determinism.md");
  const std::regex row(
      R"(^\| `([a-z_]+/[a-z_]+\.(h|cpp))` \| ([A-Z]{2}[0-9]{2}) \|)");
  Pairs inventory;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_search(line, m, row))
      inventory.emplace(m[1].str(), m[3].str());
  }

  const std::regex marker(
      R"(//\s*FFCHECK\(([A-Z]{2}[0-9]{2}(\s*,\s*[A-Z]{2}[0-9]{2})*)\))");
  const std::regex rule_id("[A-Z]{2}[0-9]{2}");
  const auto rules_of = [&](const std::string& text) {
    std::set<std::string> rules;
    for (std::sregex_iterator it(text.begin(), text.end(), marker), end;
         it != end; ++it) {
      const std::string list = (*it)[1];
      for (std::sregex_iterator r(list.begin(), list.end(), rule_id), stop;
           r != stop; ++r)
        rules.insert(r->str());
    }
    return rules;
  };
  // The scan is live: the regex finds suppressions as ffcheck reads them,
  // one rule or several, and skips the placeholder.
  EXPECT_EQ(rules_of("// FFCHECK(ND06): x\n// FFCHECK(HP03, ND03): y"),
            (std::set<std::string>{"HP03", "ND03", "ND06"}));
  EXPECT_TRUE(rules_of("// FFCHECK(RULE): reason").empty());

  const fs::path src = repo_dir() / "src";
  Pairs marked;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(src)) {
    const fs::path& file = entry.path();
    if (file.extension() != ".h" && file.extension() != ".cpp") continue;
    for (const std::string& rule : rules_of(read_file(file)))
      marked.emplace(fs::relative(file, src).generic_string(), rule);
  }
  EXPECT_EQ(inventory, marked)
      << "docs/determinism.md's suppression inventory and src/'s markers";

  // The ND06 audit sentence names, in one sentence, each file whose
  // unordered containers were audited and suppressed under ND06.
  const std::size_t end = doc.find("suppressed under ND06");
  ASSERT_NE(end, std::string::npos) << "the ND06 audit sentence is gone";
  std::size_t begin = 0;
  for (const char* stop : {". ", ".\n"}) {
    const std::size_t at = doc.rfind(stop, end);
    if (at != std::string::npos) begin = std::max(begin, at);
  }
  const std::string sentence = doc.substr(begin, end - begin);
  const std::regex path(R"(`([a-z_]+/[a-z_]+\.(h|cpp))`)");
  std::set<std::string> named;
  for (std::sregex_iterator it(sentence.begin(), sentence.end(), path), stop;
       it != stop; ++it)
    named.insert((*it)[1]);
  std::set<std::string> nd06;
  for (const auto& [file, rule] : marked)
    if (rule == "ND06") nd06.insert(file);
  EXPECT_EQ(named, nd06)
      << "docs/determinism.md's ND06 sentence: \"" << sentence << "\"";
}

}  // namespace
}  // namespace flashflow
