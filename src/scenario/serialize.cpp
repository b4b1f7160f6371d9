#include "scenario/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/time.h"
#include "util/strict_parse.h"

namespace flashflow::scenario {

namespace {

// ------------------------------------------------------------- key tables ---

/// A scenario key and the spec field it holds. Every key a table lists is
/// written by serialize_scenario() and read by parse_scenario() in table
/// order; parse order decides which of two bad keys gets reported.
template <typename S>
struct Key {
  const char* name;
  std::variant<std::string S::*, std::uint64_t S::*, int S::*, bool S::*,
               double S::*, std::vector<double> S::*,
               std::vector<std::string> S::*>
      member;
};

using analysis::PopulationParams;
using shadowsim::ShadowNetParams;

// `schedule` sits between these two tables in a file, and parse checks
// its word after reading both.
const Key<ScenarioSpec> kRunKeys[] = {
    {"name", &ScenarioSpec::name},
    {"seed", &ScenarioSpec::seed},
    {"periods", &ScenarioSpec::periods},
    {"threads", &ScenarioSpec::threads},
    {"shard_slots", &ScenarioSpec::shard_slots},
};
const Key<ScenarioSpec> kRecordKeys[] = {
    {"record_outcomes", &ScenarioSpec::record_outcomes},
};

const Key<Table1PopulationSpec> kTable1Keys[] = {
    {"table1.rate_limits_mbit", &Table1PopulationSpec::rate_limit_mbit},
    {"table1.relay_host", &Table1PopulationSpec::relay_host},
    {"table1.background_mbit", &Table1PopulationSpec::background_mbit},
    {"table1.prior_mbit", &Table1PopulationSpec::prior_mbit},
};

const Key<ShadowPopulationSpec> kShadowKeys[] = {
    {"shadow.seed", &ShadowPopulationSpec::seed},
};
const Key<ShadowNetParams> kShadowNetKeys[] = {
    {"shadow.relays", &ShadowNetParams::relays},
    {"shadow.capacity_mu", &ShadowNetParams::capacity_mu},
    {"shadow.capacity_sigma", &ShadowNetParams::capacity_sigma},
    {"shadow.max_capacity_bits", &ShadowNetParams::max_capacity_bits},
    {"shadow.min_capacity_bits", &ShadowNetParams::min_capacity_bits},
    {"shadow.advertised_mean", &ShadowNetParams::advertised_mean},
    {"shadow.advertised_sd", &ShadowNetParams::advertised_sd},
};

const Key<SyntheticPopulationSpec> kSyntheticKeys[] = {
    {"synthetic.relays", &SyntheticPopulationSpec::relays},
    {"synthetic.prior_fraction", &SyntheticPopulationSpec::prior_fraction},
};
const Key<PopulationParams> kSyntheticPopulationKeys[] = {
    {"synthetic.lognormal_mu", &PopulationParams::lognormal_mu},
    {"synthetic.lognormal_sigma", &PopulationParams::lognormal_sigma},
    {"synthetic.max_capacity_bits", &PopulationParams::max_capacity_bits},
    {"synthetic.min_capacity_bits", &PopulationParams::min_capacity_bits},
};

// Read only for synthetic populations; `topology.path_model` is read by
// hand.
const Key<TopologySpec> kTopologyKeys[] = {
    {"topology.tiers", &TopologySpec::tiers},
    {"topology.tier_rtt_s", &TopologySpec::tier_rtt_s},
    {"topology.loss", &TopologySpec::loss},
    {"topology.loaded_loss", &TopologySpec::loaded_loss},
    {"topology.rtt_jitter", &TopologySpec::rtt_jitter},
};

const Key<fault::FaultSpec> kFaultKeys[] = {
    {"faults.measurer_crash", &fault::FaultSpec::measurer_crash},
    {"faults.relay_disconnect", &fault::FaultSpec::relay_disconnect},
    {"faults.report_drop", &fault::FaultSpec::report_drop},
    {"faults.report_truncate", &fault::FaultSpec::report_truncate},
    {"faults.slot_timeout", &fault::FaultSpec::slot_timeout},
    {"faults.max_retries", &fault::FaultSpec::max_retries},
    {"faults.min_usable_seconds", &fault::FaultSpec::min_usable_seconds},
};

const Key<TeamSpec> kTeamKeys[] = {
    {"team.measurers", &TeamSpec::measurer_names},
    {"team.capacity_bits", &TeamSpec::capacity_bits},
};

const Key<AdversaryMix> kAdversaryKeys[] = {
    {"adversaries.liar_fraction", &AdversaryMix::liar_fraction},
    {"adversaries.forger_fraction", &AdversaryMix::forger_fraction},
};

const Key<BackgroundModel> kBackgroundKeys[] = {
    {"background.enabled", &BackgroundModel::enabled},
    {"background.utilization_mean", &BackgroundModel::utilization_mean},
    {"background.utilization_sd", &BackgroundModel::utilization_sd},
};

// `params.period_seconds` (a sim::SimDuration in seconds) comes last, by
// hand.
const Key<core::Params> kParamsKeys[] = {
    {"params.sockets", &core::Params::sockets},
    {"params.multiplier", &core::Params::multiplier},
    {"params.slot_seconds", &core::Params::slot_seconds},
    {"params.epsilon1", &core::Params::epsilon1},
    {"params.epsilon2", &core::Params::epsilon2},
    {"params.ratio", &core::Params::ratio},
    {"params.check_probability", &core::Params::check_probability},
};

// ------------------------------------------------------------- formatting ---

bool plain_string(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '-' || c == '.' || c == '/';
  });
}

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// Appends one value in file form: doubles in shortest round-trip form
/// (the serializer half of the round-trip promise), strings bare when
/// possible and double-quoted when the text would not survive the line
/// format (spaces, '#', ',', ...), lists inline as [a, b].
template <typename T>
void write_value(std::string& out, const T& value) {
  if constexpr (IsVector<T>::value) {
    out += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i) out += ", ";
      write_value(out, value[i]);
    }
    out += ']';
  } else if constexpr (std::is_convertible_v<T, std::string_view>) {
    const bool quote = !plain_string(value);
    if (quote) out += '"';
    out += value;
    if (quote) out += '"';
  } else if constexpr (std::is_same_v<T, double>) {
    util::format_double(out, value);
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else {
    out += std::to_string(value);
  }
}

void write_line(std::string& out, const char* key, const auto& value) {
  out += key;
  out += ": ";
  write_value(out, value);
  out += '\n';
}

template <typename S, std::size_t N>
void write_keys(std::string& out, const S& section, const Key<S> (&keys)[N]) {
  for (const Key<S>& key : keys)
    std::visit([&](auto member) { write_line(out, key.name, section.*member); },
               key.member);
}

// ---------------------------------------------------------------- parsing ---

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Strips an optional matched pair of double quotes.
std::string unquote(std::string_view s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return std::string(s.substr(1, s.size() - 2));
  return std::string(s);
}

/// The `key: value` lines of one scenario file, with duplicate detection,
/// typed access, and unknown-key reporting. Every diagnostic is prefixed
/// "<source>:<line>:" so a malformed file points at itself.
class ScenarioText {
 public:
  ScenarioText(const std::string& text, std::string source)
      : source_(std::move(source)) {
    std::istringstream in(text);
    std::string raw;
    for (int line = 1; std::getline(in, raw); ++line) {
      std::string_view rest = strip_comment(raw);
      rest = trim(rest);
      if (rest.empty()) continue;
      const auto colon = rest.find(':');
      if (colon == std::string_view::npos)
        fail(line, "expected 'key: value', got '" + std::string(rest) + "'");
      const std::string key{trim(rest.substr(0, colon))};
      if (key.empty() || !plain_string(key))
        fail(line, "malformed key '" + key + "'");
      const std::string value{trim(rest.substr(colon + 1))};
      if (value.empty()) fail(line, "key '" + key + "' has no value");
      const auto [it, inserted] = entries_.emplace(key, Entry{value, line});
      if (!inserted)
        fail(line, "duplicate key '" + key + "' (first set on line " +
                       std::to_string(it->second.line) + ")");
    }
  }

  [[noreturn]] void fail(int line, const std::string& message) const {
    throw std::invalid_argument(source_ + ":" + std::to_string(line) + ": " +
                                message);
  }

  /// Parses `key` into `value` if the file sets it; an absent key leaves
  /// `value` as it was. Returns whether the key was present.
  template <typename T>
  bool read(const std::string& key, T& value) {
    const Entry* e = find(key);
    if (!e) return false;
    if constexpr (IsVector<T>::value) {
      value.clear();
      for (const std::string& item : split_list(key, e))
        value.push_back(scalar<typename T::value_type>(item, key, e));
    } else {
      value = scalar<T>(e->value, key, e);
    }
    return true;
  }

  /// Reads every key of a table into `section`.
  template <typename S, std::size_t N>
  void read_keys(S& section, const Key<S> (&keys)[N]) {
    for (const Key<S>& key : keys)
      std::visit([&](auto member) { read(key.name, section.*member); },
                 key.member);
  }

  /// The line an already-consumed key was set on (diagnostics).
  int line_of(const std::string& key) const {
    return entries_.at(key).line;
  }

  /// Fails on the first (lowest-line) key no read() consumed. `population`
  /// names the active population source so a valid-but-inapplicable
  /// section gets a better message than "unknown key".
  void reject_unused(const std::string& population) const {
    const Entry* first = nullptr;
    const std::string* first_key = nullptr;
    for (const auto& [key, entry] : entries_) {
      if (entry.used) continue;
      if (!first || entry.line < first->line) {
        first = &entry;
        first_key = &key;
      }
    }
    if (!first) return;
    // Each section belongs to one population; topology.* describes the
    // synthetic mesh (table1 and shadow bring their own path tables).
    const std::pair<const char*, const char*> kSectionOwners[] = {
        {"table1.", "table1"},
        {"shadow.", "shadow"},
        {"synthetic.", "synthetic"},
        {"topology.", "synthetic"}};
    for (const auto& [prefix, owner] : kSectionOwners) {
      if (first_key->rfind(prefix, 0) == 0 && population != owner)
        fail(first->line, "key '" + *first_key +
                              "' does not apply (population is '" +
                              population + "')");
    }
    fail(first->line, "unknown key '" + *first_key + "'");
  }

 private:
  struct Entry {
    std::string value;
    int line = 0;
    mutable bool used = false;
  };

  /// One scalar (or list element) of type T. The strict numeric parsers
  /// get "<source>:<line>: key '<key>'" as their `what`, so their messages
  /// come out fully located.
  template <typename T>
  T scalar(std::string_view text, const std::string& key,
           const Entry* e) const {
    if constexpr (std::is_same_v<T, std::string>) {
      return unquote(text);
    } else {
      const std::string what =
          source_ + ":" + std::to_string(e->line) + ": key '" + key + "'";
      if constexpr (std::is_same_v<T, double>)
        return util::parse_double(text, what);
      else if constexpr (std::is_same_v<T, int>)
        return util::parse_int(text, what);
      else if constexpr (std::is_same_v<T, std::uint64_t>)
        return util::parse_u64(text, what);
      else
        return util::parse_bool(text, what);
    }
  }

  const Entry* find(const std::string& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    it->second.used = true;
    return &it->second;
  }

  std::vector<std::string> split_list(const std::string& key,
                                      const Entry* e) const {
    const std::string_view value = e->value;
    if (value.size() < 2 || value.front() != '[' || value.back() != ']')
      fail(e->line, "key '" + key + "': expected a list like [a, b], got '" +
                        e->value + "'");
    std::vector<std::string> items;
    std::string_view body = trim(value.substr(1, value.size() - 2));
    if (body.empty()) return items;  // []
    while (true) {
      const auto comma = body.find(',');
      const std::string_view item = trim(body.substr(0, comma));
      if (item.empty())
        fail(e->line, "key '" + key + "': empty list element");
      items.emplace_back(item);
      if (comma == std::string_view::npos) break;
      body = body.substr(comma + 1);
    }
    return items;
  }

  /// '#' opens a comment at the start of a line or after whitespace;
  /// "US-SW#3" stays intact, and nothing inside a double-quoted value
  /// ("a #tag") is a comment.
  static std::string_view strip_comment(std::string_view line) {
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') quoted = !quoted;
      if (!quoted && line[i] == '#' &&
          (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t'))
        return line.substr(0, i);
    }
    return line;
  }

  const std::string source_;
  std::map<std::string, Entry> entries_;
};

}  // namespace

// -------------------------------------------------------------- serialize ---

std::string serialize_scenario(const ScenarioSpec& spec) {
  spec.validate();
  std::string out =
      "# FlashFlow scenario (format version 1). One 'key: value' per\n"
      "# line, dotted keys for nesting, inline [a, b] lists; absent\n"
      "# keys keep their defaults. See README \"Scenario files\".\n"
      "flashflow_scenario: 1\n";
  write_keys(out, spec, kRunKeys);
  write_line(out, "schedule",
             spec.schedule == campaign::ScheduleMode::kGreedyPack
                 ? "greedy_pack"
                 : "randomized");
  write_keys(out, spec, kRecordKeys);

  if (const auto* t1 = std::get_if<Table1PopulationSpec>(&spec.population)) {
    out += "\npopulation: table1\n";
    write_keys(out, *t1, kTable1Keys);
  } else if (const auto* shadow =
                 std::get_if<ShadowPopulationSpec>(&spec.population)) {
    out += "\npopulation: shadow\n";
    write_keys(out, *shadow, kShadowKeys);
    write_keys(out, shadow->params, kShadowNetKeys);
  } else {
    const auto& syn = std::get<SyntheticPopulationSpec>(spec.population);
    out += "\npopulation: synthetic\n";
    write_keys(out, syn, kSyntheticKeys);
    write_keys(out, syn.params, kSyntheticPopulationKeys);
  }

  // Optional sections: emitted only when engaged, so files written by
  // older builds and specs with all-default values stay byte-stable.
  if (spec.topology != TopologySpec{}) {
    out += '\n';
    write_keys(out, spec.topology, kTopologyKeys);
  }
  if (spec.faults != fault::FaultSpec{}) {
    out += '\n';
    write_keys(out, spec.faults, kFaultKeys);
  }

  out += '\n';
  write_keys(out, spec.team, kTeamKeys);
  out += '\n';
  write_keys(out, spec.adversaries, kAdversaryKeys);
  out += '\n';
  write_keys(out, spec.background, kBackgroundKeys);
  out += '\n';
  write_keys(out, spec.params, kParamsKeys);
  write_line(out, "params.period_seconds", sim::to_seconds(spec.params.period));
  return out;
}

// ------------------------------------------------------------------ parse ---

ScenarioSpec parse_scenario(const std::string& text,
                            const std::string& source) {
  ScenarioText in(text, source);
  ScenarioSpec spec;

  int version = 1;
  if (in.read("flashflow_scenario", version) && version != 1)
    in.fail(in.line_of("flashflow_scenario"),
            "unsupported scenario-format version " + std::to_string(version) +
                " (this build reads version 1)");

  in.read_keys(spec, kRunKeys);
  in.read_keys(spec, kRecordKeys);

  std::string schedule = "greedy_pack";
  in.read("schedule", schedule);
  if (schedule == "greedy_pack") {
    spec.schedule = campaign::ScheduleMode::kGreedyPack;
  } else if (schedule == "randomized") {
    spec.schedule = campaign::ScheduleMode::kRandomized;
  } else {
    in.fail(in.line_of("schedule"),
            "key 'schedule': expected greedy_pack or randomized, got '" +
                schedule + "'");
  }

  std::string population;
  if (!in.read("population", population))
    throw std::invalid_argument(source +
                                ": missing required key 'population'");
  if (population == "table1") {
    in.read_keys(spec.population.emplace<Table1PopulationSpec>(),
                 kTable1Keys);
  } else if (population == "shadow") {
    auto& shadow = spec.population.emplace<ShadowPopulationSpec>();
    in.read_keys(shadow, kShadowKeys);
    in.read_keys(shadow.params, kShadowNetKeys);
  } else if (population == "synthetic") {
    auto& syn = spec.population.emplace<SyntheticPopulationSpec>();
    in.read_keys(syn, kSyntheticKeys);
    in.read_keys(syn.params, kSyntheticPopulationKeys);
    // Files written while a second path model existed name the one that
    // is left.
    std::string path_model;
    if (in.read("topology.path_model", path_model) && path_model != "tiered")
      in.fail(in.line_of("topology.path_model"),
              "key 'topology.path_model': expected tiered, got '" +
                  path_model + "'");
    in.read_keys(spec.topology, kTopologyKeys);
  } else {
    in.fail(in.line_of("population"),
            "key 'population': expected table1, shadow or synthetic, "
            "got '" + population + "'");
  }

  in.read_keys(spec.faults, kFaultKeys);
  in.read_keys(spec.team, kTeamKeys);
  in.read_keys(spec.adversaries, kAdversaryKeys);
  in.read_keys(spec.background, kBackgroundKeys);
  in.read_keys(spec.params, kParamsKeys);
  double period_seconds = 0.0;
  if (in.read("params.period_seconds", period_seconds)) {
    // A SimDuration holds about 9.22e12 s in microseconds; converting a
    // longer period overflows.
    if (!(period_seconds > 0.0 && period_seconds <= 9.2e12))
      in.fail(in.line_of("params.period_seconds"),
              "key 'params.period_seconds': expected seconds in "
              "(0, 9.2e12]");
    spec.params.period = sim::from_seconds(period_seconds);
  }

  in.reject_unused(population);
  // A semantic rule has no line to point at; name the source instead.
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(source + ": " + e.what());
  }
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream file(path);
  if (!file)
    throw std::invalid_argument("cannot open scenario file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_scenario(text.str(), path);
}

std::vector<FileCheck> check_scenario_files(
    const std::vector<std::string>& paths) {
  std::vector<FileCheck> checks;
  checks.reserve(paths.size());
  for (const std::string& path : paths) {
    FileCheck check;
    check.path = path;
    try {
      check.name = load_scenario_file(path).name;
      check.ok = true;
    } catch (const std::exception& e) {
      check.detail = e.what();
    }
    checks.push_back(std::move(check));
  }
  return checks;
}

std::string default_scenario_dir() {
#ifdef FLASHFLOW_SCENARIO_DIR
  return FLASHFLOW_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

}  // namespace flashflow::scenario
