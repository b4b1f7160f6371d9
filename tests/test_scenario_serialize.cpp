// Scenario-file serialization (scenario/serialize.h).
//
// Two contracts under test. Round-trip fidelity: parse(serialize(spec))
// must reproduce the spec *exactly* (operator== over every field —
// doubles are emitted in shortest-round-trip form, so no precision is
// shed). Diagnostics: a malformed file must throw std::invalid_argument
// naming the offending key and line, because scenario files are the
// user-facing input surface and "parse error" without a location is
// useless at 30 lines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/units.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "sim/time.h"

namespace flashflow::scenario {
namespace {

/// Expects parse_scenario(text) to throw with a message containing every
/// fragment (key names, line numbers, the bad value).
void expect_parse_error(const std::string& text,
                        std::initializer_list<const char*> fragments) {
  try {
    parse_scenario(text, "test.yaml");
    FAIL() << "expected std::invalid_argument for:\n" << text;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments)
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' missing '" << fragment << "'";
  }
}

ScenarioSpec synthetic_spec() {
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.42;
  pop.lognormal_sigma = 1.45;
  pop.max_capacity_bits = 998e6;
  return {.name = "synthetic-rt",
          .population = SyntheticPopulationSpec{pop, 6419, 0.37},
          .team = {.capacity_bits = {net::gbit(1), net::gbit(1.5)}},
          .adversaries = {.liar_fraction = 0.03, .forger_fraction = 0.07},
          .background = {.enabled = true,
                         .utilization_mean = 0.21,
                         .utilization_sd = 0.092},
          .schedule = campaign::ScheduleMode::kRandomized,
          .periods = 4,
          .threads = 8,
          .shard_slots = 16,
          .seed = 0xDEADBEEFCAFEF00DULL,
          .record_outcomes = true};
}

TEST(ScenarioSerialize, SyntheticRoundTripsExactly) {
  const ScenarioSpec spec = synthetic_spec();
  const ScenarioSpec back = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(spec, back);
}

TEST(ScenarioSerialize, Table1RoundTripsExactly) {
  core::Params params;
  params.ratio = 0.1;
  params.check_probability = 0.85;
  const ScenarioSpec spec{
      .name = "table1-rt",
      .population = Table1PopulationSpec{.rate_limit_mbit = {250, 0, 33.5},
                                         .background_mbit = 50,
                                         .prior_mbit = 250},
      .team = {.measurer_names = {"NL", "US-E"},
               .capacity_bits = {net::mbit(1611), net::mbit(900)}},
      .params = params,
      .seed = 20210607};
  const ScenarioSpec back = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(spec, back);
}

TEST(ScenarioSerialize, ShadowRoundTripsExactly) {
  shadowsim::ShadowNetParams net_params;
  net_params.relays = 123;
  net_params.capacity_mu = 16.9;
  const ScenarioSpec spec{
      .name = "shadow-rt",
      .population = ShadowPopulationSpec{net_params, 17},
      .team = {.capacity_bits = {net::gbit(1), net::gbit(1), net::gbit(1)}},
      .periods = 2,
      .seed = 0x5EED};
  const ScenarioSpec back = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(spec, back);
}

TEST(ScenarioSerialize, TieredTopologyRoundTripsExactly) {
  TopologySpec topo;
  topo.tiers = 3;
  topo.tier_rtt_s = {0.010, 0.065, 0.090, 0.020, 0.150, 0.025};
  topo.loss = 2.0e-6;
  topo.loaded_loss = 7.0e-5;
  topo.rtt_jitter = 0.25;
  ScenarioSpec spec = synthetic_spec();
  spec.topology = topo;
  const ScenarioSpec back = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(spec, back);
  EXPECT_EQ(back.topology.tier_rtt_s, topo.tier_rtt_s);
}

TEST(ScenarioSerialize, FaultsRoundTripExactly) {
  fault::FaultSpec faults;
  faults.measurer_crash = 0.031;
  faults.relay_disconnect = 0.052;
  faults.report_drop = 0.07;
  faults.report_truncate = 0.011;
  faults.slot_timeout = 0.0225;
  faults.max_retries = 4;
  faults.min_usable_seconds = 9;
  ScenarioSpec spec = synthetic_spec();
  spec.faults = faults;
  const ScenarioSpec back = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(spec, back);
  EXPECT_EQ(back.faults, faults);
}

TEST(ScenarioSerialize, DefaultTopologyAndFaultsStayOffTheWire) {
  // Specs without the optional sections must serialize without emitting
  // them, so files written before those keys existed stay byte-stable.
  const std::string text = serialize_scenario(synthetic_spec());
  EXPECT_EQ(text.find("topology."), std::string::npos);
  // Line-anchored: the header comment's word "defaults." is not a key.
  EXPECT_EQ(text.find("\nfaults."), std::string::npos);
}

TEST(ScenarioSerialize, AbsentFaultsSectionKeepsDefaults) {
  const ScenarioSpec spec = parse_scenario(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n");
  EXPECT_EQ(spec.faults, fault::FaultSpec{});
  EXPECT_FALSE(spec.faults.enabled());
}

TEST(ScenarioSerialize, QuotedNameSurvivesRoundTrip) {
  ScenarioSpec spec = synthetic_spec();
  spec.name = "has spaces: and #punctuation";
  EXPECT_EQ(parse_scenario(serialize_scenario(spec)).name, spec.name);
}

TEST(ScenarioSerialize, AbsentKeysKeepDefaults) {
  // A minimal file — everything else must come out as the struct
  // defaults, which is what makes checked-in scenarios this terse.
  const ScenarioSpec spec = parse_scenario(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n");
  EXPECT_EQ(spec, (ScenarioSpec{.population = Table1PopulationSpec{
                                     .rate_limit_mbit = {250}}}));
}

TEST(ScenarioSerialize, CommentsAndBlankLinesAreIgnored) {
  const ScenarioSpec spec = parse_scenario(
      "# header comment\n"
      "\n"
      "seed: 7   # trailing comment\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]   # one relay\n");
  EXPECT_EQ(spec.seed, 7u);
  // '#' only opens a comment after whitespace, so host names with '#'
  // survive.
  const ScenarioSpec host = parse_scenario(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "table1.relay_host: US-SW#3\n");
  EXPECT_EQ(std::get<Table1PopulationSpec>(host.population).relay_host,
            "US-SW#3");
}

// ------------------------------------------------------- malformed input ---

TEST(ScenarioSerialize, UnknownKeyNamesKeyAndLine) {
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "table1.rate_limit_mbit: [100]\n",  // near-miss typo
      {"test.yaml:3", "unknown key 'table1.rate_limit_mbit'"});
  // Keys no slot run reads are refused, not silently ignored: each fails
  // on its own line, after three valid lines of its population.
  const char* const table1 =
      "population: table1\ntable1.rate_limits_mbit: [250]\nseed: 3\n";
  const char* const synthetic =
      "population: synthetic\nsynthetic.relays: 40\n"
      "team.capacity_bits: [8e8]\n";
  const char* const shadow = "population: shadow\nshadow.relays: 30\nseed: 3\n";
  const std::pair<const char*, const char*> removed[] = {
      {table1, "speedtest.warmup_days"},
      {synthetic, "synthetic.initial_relays"},
      {synthetic, "synthetic.growth_per_year"},
      {synthetic, "synthetic.churn_per_day"},
      {synthetic, "synthetic.rate_limited_fraction"},
      {shadow, "shadow.contention_mean"},
      {shadow, "shadow.contention_sd"},
  };
  for (const auto& [head, key] : removed) {
    const std::string unknown = std::string("unknown key '") + key + "'";
    expect_parse_error(std::string(head) + key + ": 1\n",
                       {"test.yaml:4", unknown.c_str()});
  }
}

TEST(ScenarioSerialize, WrongTypeNamesKeyLineAndValue) {
  expect_parse_error(
      "seed: banana\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n",
      {"test.yaml:1", "key 'seed'", "banana"});
  expect_parse_error(
      "periods: 2.5\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n",
      {"test.yaml:1", "key 'periods'", "2.5"});
  expect_parse_error(
      "record_outcomes: yes\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n",
      {"test.yaml:1", "key 'record_outcomes'", "yes"});
}

TEST(ScenarioSerialize, OutOfRangePeriodNamesKeyAndLine) {
  // Past 9.2e12 s the period's microsecond count would overflow: refused
  // at its line before the conversion, like a period that is not positive.
  const std::string head =
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "params.period_seconds: ";
  for (const char* value : {"1e300", "1e13", "0", "-86400"})
    expect_parse_error(head + value + "\n",
                       {"test.yaml:3", "key 'params.period_seconds'"});
  EXPECT_EQ(parse_scenario(head + "9.2e12\n", "test.yaml").params.period,
            sim::from_seconds(9.2e12));
}

TEST(ScenarioSerialize, TrailingGarbageInNumberRejected) {
  expect_parse_error(
      "population: synthetic\n"
      "synthetic.relays: 40k\n"
      "team.capacity_bits: [8e8]\n",
      {"test.yaml:2", "key 'synthetic.relays'", "40k"});
}

TEST(ScenarioSerialize, MissingRequiredPopulation) {
  expect_parse_error("seed: 1\n", {"missing required key 'population'"});
}

TEST(ScenarioSerialize, UnknownPopulationValue) {
  expect_parse_error("population: labnet\n",
                     {"test.yaml:1", "key 'population'", "labnet"});
}

TEST(ScenarioSerialize, DuplicateKeyNamesBothLines) {
  expect_parse_error(
      "seed: 1\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "seed: 2\n",
      {"test.yaml:4", "duplicate key 'seed'", "line 1"});
}

TEST(ScenarioSerialize, WrongPopulationSectionGetsTargetedMessage) {
  // A valid shadow key under a table1 population should say *why* it is
  // rejected, not just "unknown key".
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "shadow.relays: 100\n",
      {"test.yaml:3", "shadow.relays", "does not apply",
       "population is 'table1'"});
}

TEST(ScenarioSerialize, MalformedListRejected) {
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: 250\n",  // missing brackets
      {"test.yaml:2", "expected a list"});
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250, , 100]\n",
      {"test.yaml:2", "empty list element"});
}

TEST(ScenarioSerialize, BadScheduleAndVersionRejected) {
  expect_parse_error(
      "schedule: fastest\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n",
      {"test.yaml:1", "key 'schedule'", "fastest"});
  expect_parse_error(
      "flashflow_scenario: 2\n"
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n",
      {"test.yaml:1", "version 2"});
}

TEST(ScenarioSerialize, UnknownPathModelValueNamesKeyAndLine) {
  // `tiered` names the one path model; anything else, the retired
  // `dense` included, is refused at its line.
  for (const char* model : {"mesh", "dense"}) {
    expect_parse_error(
        std::string("population: synthetic\n"
                    "synthetic.relays: 40\n"
                    "team.capacity_bits: [8e8]\n"
                    "topology.path_model: ") +
            model + "\n",
        {"test.yaml:4", "key 'topology.path_model'", "expected tiered",
         model});
  }
}

TEST(ScenarioSerialize, TieredPathModelLineIsReadButNotWritten) {
  // Files written while a second path model existed carry
  // `topology.path_model: tiered`: they parse to the same spec as the
  // file without the line, which is what serialize_scenario writes now.
  const std::string body =
      "population: synthetic\n"
      "synthetic.relays: 40\n"
      "team.capacity_bits: [8e8]\n"
      "topology.tiers: 2\n"
      "topology.tier_rtt_s: [0.02, 0.065, 0.02]\n";
  const ScenarioSpec with_line =
      parse_scenario(body + "topology.path_model: tiered\n");
  EXPECT_EQ(with_line, parse_scenario(body));
  const std::string text = serialize_scenario(with_line);
  EXPECT_EQ(text.find("path_model"), std::string::npos) << text;
  EXPECT_NE(text.find("topology.tiers: 2\n"), std::string::npos) << text;
}

TEST(ScenarioSerialize, TierParamsWithoutTieredModelRejected) {
  // More than one tier without a table would be the flat mesh again, and
  // expanding it would take tiers^2 table entries: refused, naming both
  // keys.
  expect_parse_error(
      "population: synthetic\n"
      "synthetic.relays: 40\n"
      "team.capacity_bits: [8e8]\n"
      "topology.tiers: 3\n",
      {"topology.tiers > 1 needs topology.tier_rtt_s"});
}

TEST(ScenarioSerialize, TieredModelRequiresSyntheticPopulation) {
  // Table 1 and shadow bring their own path tables; any topology.* line,
  // `topology.path_model` included, is refused at its line.
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "topology.path_model: tiered\n",
      {"test.yaml:3", "key 'topology.path_model' does not apply",
       "population is 'table1'"});
  expect_parse_error(
      "population: shadow\n"
      "topology.tiers: 1\n",
      {"test.yaml:2", "key 'topology.tiers' does not apply",
       "population is 'shadow'"});
  // A spec built in code hits the same rule in validate().
  ScenarioSpec spec;
  spec.population = Table1PopulationSpec{.rate_limit_mbit = {250}};
  spec.topology.rtt_jitter = 0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSerialize, RepeatedMeasurerRejected) {
  // The §4.2 mesh gives every listed measurer its own NICs, so naming a
  // host twice would count its NIC twice.
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [500]\n"
      "team.measurers: [US-E, US-E]\n",
      {"team.measurers names US-E twice"});
}

TEST(ScenarioSerialize, WrongTierTableLengthRejected) {
  // 3 tiers need 6 upper-triangle entries.
  expect_parse_error(
      "population: synthetic\n"
      "synthetic.relays: 40\n"
      "team.capacity_bits: [8e8]\n"
      "topology.path_model: tiered\n"
      "topology.tiers: 3\n"
      "topology.tier_rtt_s: [0.01, 0.05, 0.09]\n",
      {"tier_rtt_s needs tiers*(tiers+1)/2 entries"});
}

TEST(ScenarioSerialize, JitterOutOfRangeRejected) {
  expect_parse_error(
      "population: synthetic\n"
      "synthetic.relays: 40\n"
      "team.capacity_bits: [8e8]\n"
      "topology.path_model: tiered\n"
      "topology.rtt_jitter: 1.5\n",
      {"rtt_jitter must be in [0, 1)"});
}

TEST(ScenarioSerialize, MalformedFaultValuesNameKeyAndLine) {
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "faults.slot_timeout: often\n",
      {"test.yaml:3", "key 'faults.slot_timeout'", "often"});
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "faults.max_retries: 1.5\n",
      {"test.yaml:3", "key 'faults.max_retries'", "1.5"});
  // Syntactically valid, semantically out of range: FaultSpec::validate
  // fires through spec validation.
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "faults.report_drop: 1.7\n",
      {"report_drop must be in [0, 1]"});
}

// Two configs that parsed but could never produce an estimate: every slot
// failed and every relay was quarantined.
TEST(ScenarioSerialize, RejectsConfigsNoSlotCanSatisfy) {
  std::ifstream file(default_scenario_dir() + "/fault_smoke.yaml");
  std::ostringstream text;
  text << file.rdbuf();
  ASSERT_FALSE(text.str().empty());
  EXPECT_NO_THROW(parse_scenario(text.str(), "fault_smoke.yaml"));
  expect_parse_error(text.str() + "params.multiplier: 0.9\n",
                     {"multiplier must be >= 1"});
  expect_parse_error(text.str() + "params.slot_seconds: 4\n",
                     {"min_usable_seconds must not exceed params.slot_seconds"});
  // Without armed faults a 4-second slot is fine.
  EXPECT_NO_THROW(parse_scenario("population: table1\n"
                                 "table1.rate_limits_mbit: [250]\n"
                                 "params.slot_seconds: 4\n"));
}

TEST(ScenarioSerialize, LineWithoutColonRejected) {
  expect_parse_error("just some text\n", {"test.yaml:1", "key: value"});
}

TEST(ScenarioSerialize, SemanticValidationStillRuns) {
  // Syntactically fine, semantically invalid — spec.validate() fires
  // (adversary fractions must sum to <= 1).
  EXPECT_THROW(parse_scenario("population: table1\n"
                              "table1.rate_limits_mbit: [250]\n"
                              "adversaries.liar_fraction: 0.7\n"
                              "adversaries.forger_fraction: 0.6\n"),
               std::invalid_argument);
  // Like tier parameters, a utilization the disabled background model
  // would drop is refused.
  expect_parse_error(
      "population: table1\n"
      "table1.rate_limits_mbit: [250]\n"
      "background.utilization_mean: 0.5\n",
      {"background utilization applies only with background.enabled"});
}

TEST(ScenarioSerialize, LoadFileReportsUnopenablePath) {
  try {
    load_scenario_file("/nonexistent/nope.yaml");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nope.yaml"),
              std::string::npos);
  }
}

TEST(ScenarioSerialize, CheckedInScenariosAllParse) {
  // The files the examples, benches and CI smoke job rely on.
  for (const char* name : {"quickstart", "measure_network", "fig07", "sec7",
                           "golden_smoke", "fault_smoke"}) {
    const std::string path =
        default_scenario_dir() + "/" + name + ".yaml";
    EXPECT_NO_THROW(load_scenario_file(path)) << path;
  }
}

// ------------------------------------------------- check_scenario_files ---

TEST(ScenarioSerialize, CheckScenarioFilesReportsEveryFile) {
  // `flashflow validate` must not stop at the first bad file: every path
  // gets its own verdict, bad ones carrying the full diagnostic.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ff_check_scenarios_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto write = [&](const char* name, const std::string& text) {
    std::ofstream(dir / name) << text;
    return (dir / name).string();
  };
  const std::string good = write("good.yaml",
                                 "name: good-one\n"
                                 "population: table1\n"
                                 "table1.rate_limits_mbit: [250]\n");
  const std::string bad_key = write("bad_key.yaml",
                                    "population: table1\n"
                                    "table1.rate_limits_mbit: [250]\n"
                                    "bogus_key: 1\n");
  const std::string bad_fault = write("bad_fault.yaml",
                                      "population: table1\n"
                                      "table1.rate_limits_mbit: [250]\n"
                                      "faults.slot_timeout: 2\n");

  const auto checks = check_scenario_files({good, bad_key, bad_fault});
  ASSERT_EQ(checks.size(), 3u);

  EXPECT_TRUE(checks[0].ok);
  EXPECT_EQ(checks[0].path, good);
  EXPECT_EQ(checks[0].name, "good-one");

  EXPECT_FALSE(checks[1].ok);
  EXPECT_NE(checks[1].detail.find("bogus_key"), std::string::npos);
  EXPECT_NE(checks[1].detail.find(":3"), std::string::npos);

  EXPECT_FALSE(checks[2].ok);
  EXPECT_NE(checks[2].detail.find("slot_timeout"), std::string::npos);

  fs::remove_all(dir);
}

TEST(ScenarioSerialize, CheckScenarioFilesHandlesMissingFile) {
  const auto checks = check_scenario_files({"/nonexistent/nope.yaml"});
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_FALSE(checks[0].ok);
  EXPECT_NE(checks[0].detail.find("/nonexistent/nope.yaml"),
            std::string::npos);
}

}  // namespace
}  // namespace flashflow::scenario
