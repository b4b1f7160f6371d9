// Scenario files: ScenarioSpec <-> a flat YAML-subset text format.
//
// A scenario file is the declarative, checked-in form of a ScenarioSpec —
// the artifact `flashflow run scenario.yaml` executes (tools/flashflow).
// The format is a deliberate subset of YAML so files read naturally next
// to Shadow's experiment configs while the parser stays dependency-free
// and strict:
//
//   # comments run to end of line ('#' at start of line or after a space)
//   name: golden
//   population: synthetic          # table1 | shadow | synthetic
//   synthetic.relays: 40
//   synthetic.prior_fraction: 0.8
//   team.capacity_bits: [8e8, 8e8, 8e8]
//   adversaries.liar_fraction: 0.1
//   schedule: randomized           # greedy_pack | randomized
//   seed: 20210613
//
// One `key: value` per line; nesting is spelled with dotted keys; lists
// are inline `[a, b, c]`. Every diagnostic names the source, line, and key
// ("golden.yaml:7: key 'periods': expected an integer, got 'two'"), and
// the parser is strict end to end: unknown keys, duplicate keys, type
// mismatches, partial numeric tokens ("12junk"), and keys that do not
// apply to the declared population source are all errors, never warnings.
//
// Round-trip fidelity: parse(serialize(spec)) == spec for every valid
// spec that leaves the fields no slot run reads at their defaults: the
// population-growth fields of analysis::PopulationParams and
// ShadowNetParams' contention factor have no key. serialize() emits every
// other field explicitly (doubles in shortest round-trip form,
// util::format_double), so the emitted file doubles as a normalized
// archival record of an experiment; parsing accepts any subset of keys,
// with absent keys keeping their ScenarioSpec defaults.
//
// Each key is named once, in one {name, member pointer} table per spec
// section (serialize.cpp) that drives both directions in file order. The
// keys that take a fixed set of words or a unit conversion are written
// out by hand.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace flashflow::scenario {

/// Serializes a validated spec to the scenario-file text form. The output
/// parses back to an equal spec (round-trip fidelity).
std::string serialize_scenario(const ScenarioSpec& spec);

/// Parses scenario-file text and validates the result
/// (ScenarioSpec::validate). `source` names the input in diagnostics
/// (a path, "<stdin>", ...). Throws std::invalid_argument with
/// "<source>:<line>: ..." messages on malformed input and
/// "<source>: ..." ones when the spec breaks a semantic rule.
ScenarioSpec parse_scenario(const std::string& text,
                            const std::string& source = "scenario");

/// Reads and parses one scenario file; diagnostics carry the path.
ScenarioSpec load_scenario_file(const std::string& path);

/// One file's outcome from check_scenario_files.
struct FileCheck {
  std::string path;
  bool ok = false;
  /// The parsed spec's name when ok.
  std::string name;
  /// Empty when ok; otherwise the diagnostic, which names the file:
  /// "<path>:<line>: ..." for a malformed line, "<path>: ..." for a
  /// semantic rule the spec breaks, or "cannot open scenario file:
  /// <path>".
  std::string detail;
};

/// Parses and validates every listed file, never stopping at a failure,
/// so one run surfaces every broken file's diagnostic (`flashflow
/// validate a.yaml b.yaml`). Results align with `paths`.
std::vector<FileCheck> check_scenario_files(
    const std::vector<std::string>& paths);

/// The checked-in scenario directory (`scenarios/` in the source tree,
/// baked in at build time), for examples/benches/tests that load their
/// spec from a file by default.
std::string default_scenario_dir();

}  // namespace flashflow::scenario
