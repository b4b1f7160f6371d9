#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/sink.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/serialize.h"
#include "tor/bandwidth_file.h"

namespace flashflow::scenario {
namespace {

ScenarioSpec lab_spec(std::vector<double> limits_mbit,
                      std::uint64_t seed = 20210613) {
  return {.name = "lab",
          .population =
              Table1PopulationSpec{.rate_limit_mbit = std::move(limits_mbit)},
          .team = {.measurer_names = {"US-E", "NL"},
                   .capacity_bits = {net::mbit(900), net::mbit(900)}},
          .seed = seed};
}

TEST(ScenarioSpec, RejectsInvalidSpecs) {
  const ScenarioSpec one_relay{
      .population = Table1PopulationSpec{.rate_limit_mbit = {100}}};
  EXPECT_NO_THROW(one_relay.validate());
  // Empty table1 population.
  EXPECT_THROW(ScenarioSpec{}.validate(), std::invalid_argument);
  // Adversary fractions outside [0, 1] or summing above 1.
  ScenarioSpec spec = one_relay;
  spec.adversaries.liar_fraction = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.adversaries = {.liar_fraction = 0.6, .forger_fraction = 0.6};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Bad protocol params propagate through Params::validate.
  spec = one_relay;
  spec.params.epsilon1 = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Synthetic population with no relays.
  const ScenarioSpec no_relays{.population = SyntheticPopulationSpec{},
                               .team = {.capacity_bits = {net::gbit(1)}}};
  EXPECT_THROW(no_relays.validate(), std::invalid_argument);
  // Team capacity overrides misaligned with named measurers.
  spec = one_relay;
  spec.team = {.measurer_names = {"US-E", "NL"},
               .capacity_bits = {net::mbit(900)}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // ...and with the population's *default* team (table1: 4 hosts).
  spec.team.measurer_names.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  const ScenarioSpec shadow_team{
      .population = ShadowPopulationSpec{.seed = 1},
      .team = {.capacity_bits = {net::gbit(1)}}};
  EXPECT_THROW(shadow_team.validate(), std::invalid_argument);
  // Periods below 1.
  spec = one_relay;
  spec.periods = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Worker threads outside [0, 4096]: the pool would start them all.
  for (const int threads : {100000, 4097, -1}) {
    spec = one_relay;
    spec.threads = threads;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << threads;
  }
  for (const int threads : {0, 4096}) {
    spec = one_relay;
    spec.threads = threads;
    EXPECT_NO_THROW(spec.validate()) << threads;
  }
  // Capacity clamps with a maximum <= 0 (below an even lower minimum, so
  // only that rule applies) or a minimum above the maximum, for both
  // sampled populations.
  analysis::PopulationParams no_max;
  no_max.min_capacity_bits = -10;
  no_max.max_capacity_bits = -5;
  spec = no_relays;
  spec.population = SyntheticPopulationSpec{no_max, 10};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  analysis::PopulationParams inverted;
  inverted.min_capacity_bits = 5e8;
  inverted.max_capacity_bits = 1e6;
  spec = no_relays;
  spec.population = SyntheticPopulationSpec{inverted, 10};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  shadowsim::ShadowNetParams shadow_no_max;
  shadow_no_max.min_capacity_bits = 0;
  shadow_no_max.max_capacity_bits = 0;
  spec = {.population = ShadowPopulationSpec{shadow_no_max, 1}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  shadowsim::ShadowNetParams shadow_inverted;
  shadow_inverted.min_capacity_bits = 5e8;
  shadow_inverted.max_capacity_bits = 1e6;
  spec = {.population = ShadowPopulationSpec{shadow_inverted, 1}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Background utilization without the model would be dropped silently.
  spec = one_relay;
  spec.background.utilization_mean = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Synthetic populations need capacity overrides (no real topology to
  // mesh-measure).
  spec = {.population = SyntheticPopulationSpec{.relays = 10}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // An empty host name matches no host (relay hosts are unnamed): each
  // file is refused naming the key, not accepted and then failed at
  // materialization.
  const std::pair<const char*, const char*> empty_names[] = {
      {"population: table1\ntable1.rate_limits_mbit: [100]\n"
       "team.measurers: [\"\"]\n",
       "team.measurers"},
      {"population: shadow\n"
       "team.measurers: [\"\", measurer-1, measurer-2]\n",
       "team.measurers"},
      {"population: table1\ntable1.rate_limits_mbit: [100]\n"
       "table1.relay_host: \"\"\n",
       "table1.relay_host"}};
  for (const auto& [file, key] : empty_names) {
    try {
      parse_scenario(file, "empty.yaml");
      ADD_FAILURE() << "accepted:\n" << file;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Experiment, Table1RunTracksGroundTruth) {
  Experiment experiment(
      lab_spec({10, 25, 50, 75, 100, 150, 200, 250, 40, 120}));
  const auto result = experiment.run().final_period;

  ASSERT_EQ(result.relays.size(), 10u);
  EXPECT_EQ(result.summary.verification_failures, 0);
  for (const auto& est : result.relays) {
    ASSERT_GT(est.ground_truth_bits, 0.0);
    const double ratio = est.estimate_bits / est.ground_truth_bits;
    EXPECT_GT(ratio, 0.70);
    EXPECT_LT(ratio, 1.15);
  }
  EXPECT_LT(result.summary.mean_abs_relative_error, 0.15);
}

TEST(Materialize, DefaultTeamIsEveryOtherTable1Host) {
  const ScenarioSpec spec{
      .population = Table1PopulationSpec{.rate_limit_mbit = {100}}};
  const auto mat = materialize(spec);
  // US-SW hosts the relay; the other four Table 1 hosts measure.
  EXPECT_EQ(mat.measurer_hosts.size(), 4u);
  ASSERT_EQ(mat.relays.size(), 1u);
  EXPECT_EQ(mat.relays.front().model.name, "relay-0-100");
}

TEST(Plan, MatchesRunLayout) {
  const ScenarioSpec spec = lab_spec({10, 25, 50, 75, 100, 150, 200, 250});
  const auto plan = scenario::plan(spec);
  const auto result = Experiment(spec).run().final_period;

  EXPECT_EQ(plan.relays, 8);
  EXPECT_EQ(plan.team_capacity_bits, net::mbit(1800));
  EXPECT_EQ(plan.slots_in_period, result.summary.slots_in_period);
  EXPECT_GT(plan.total_requirement_bits, plan.total_prior_bits);
}

TEST(Plan, SyntheticCoversWholePopulationOnImplicitPaths) {
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.42;
  pop.lognormal_sigma = 1.45;
  pop.max_capacity_bits = 998e6;
  // §7 scale: thousands of relays on the default dense path model. plan()
  // lays them out on the implicit model instead (dense path matrices
  // would dwarf the schedule itself).
  const auto plan = scenario::plan(
      {.name = "sec7",
       .population = SyntheticPopulationSpec{pop, 6419},
       .team = {.capacity_bits = {net::gbit(1), net::gbit(1), net::gbit(1)}},
       .seed = 20210613});
  EXPECT_EQ(plan.relays, 6419);
  EXPECT_EQ(plan.team_capacity_bits, net::gbit(3));
  // The paper needs ~599 slots (~5 h) for the July 2019 network.
  EXPECT_GT(plan.slots_used, 300);
  EXPECT_LT(plan.slots_used, 1200);
  EXPECT_DOUBLE_EQ(plan.simulated_seconds, plan.slots_used * 30.0);
}

TEST(Plan, AgreesWithRunPeriodZero) {
  // plan() lays out period 0 with the run's own priors and layout
  // functions, so it must predict the run's first period exactly: greedy
  // packing (the e2e workloads, lab relays, a dense synthetic mesh, a
  // small Shadow network) and the randomized schedule (golden scenario,
  // Shadow network, the 6,419-relay e2e workload), faults cleared (a
  // retry round would execute extra slots).
  struct Case {
    ScenarioSpec spec;
    int slots_used;
  };
  const auto file = [](const std::string& path) {
    return load_scenario_file(std::string(FLASHFLOW_REPO_DIR) + path);
  };
  analysis::PopulationParams pop;
  pop.lognormal_mu = 16.0;
  pop.max_capacity_bits = 200e6;
  shadowsim::ShadowNetParams net_params;
  net_params.relays = 25;
  const std::vector<Case> cases = {
      {file("/bench/e2e/workloads/tor2019.yaml"), 610},
      {file("/bench/e2e/workloads/crowded_slots.yaml"), 7},
      {file("/scenarios/fig07.yaml"), 1},
      {file("/scenarios/quickstart.yaml"), 1},
      {{.name = "syn",
        .population = SyntheticPopulationSpec{pop, 40},
        .team = {.capacity_bits = {net::mbit(900), net::mbit(900)}},
        .seed = 13},
       2},
      {{.name = "shadow-plan",
        .population = ShadowPopulationSpec{net_params, 3},
        .team = {.capacity_bits = {net::gbit(1), net::gbit(1),
                                   net::gbit(1)}},
        .seed = 17},
       1},
      {file("/scenarios/golden_smoke.yaml"), 40},
      {file("/scenarios/measure_network.yaml"), 313},
      {file("/bench/e2e/workloads/faults_3p.yaml"), 2553},
  };
  for (Case c : cases) {
    SCOPED_TRACE(c.spec.name);
    c.spec.faults = {};
    const auto plan = scenario::plan(c.spec);
    const auto period0 = Experiment(c.spec).run().periods.front();
    const bool randomized =
        c.spec.schedule == campaign::ScheduleMode::kRandomized;
    EXPECT_EQ(plan.slots_in_period, randomized ? 2880 : c.slots_used);
    EXPECT_EQ(plan.slots_in_period, period0.summary.slots_in_period);
    EXPECT_EQ(plan.slots_used, period0.summary.slots_executed);
    EXPECT_EQ(plan.slots_used, c.slots_used);
    EXPECT_EQ(plan.relays, period0.summary.relays_measured);
  }
}

TEST(Plan, PriorsAreTheRunsSchedulingPriors) {
  // Bit for bit: the oracle prior is the relay's ground truth at the
  // configured socket count, not its sampled capacity (which differs in
  // the last bits for about one relay in seven here).
  const ScenarioSpec spec = load_scenario_file(
      std::string(FLASHFLOW_REPO_DIR) + "/bench/e2e/workloads/tor2019.yaml");
  const auto plan = scenario::plan(spec);
  const std::vector<double> run_priors = campaign::scheduling_priors(
      Experiment(spec).materialized().relays, spec.params);
  ASSERT_EQ(plan.priors.size(), 6419u);
  ASSERT_EQ(plan.priors.size(), run_priors.size());
  EXPECT_EQ(std::memcmp(plan.priors.data(), run_priors.data(),
                        run_priors.size() * sizeof(double)),
            0);
}

TEST(ScenarioSpec, RejectsNegativeTable1Fields) {
  ScenarioSpec spec{
      .population = Table1PopulationSpec{.rate_limit_mbit = {-100}}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.population = Table1PopulationSpec{.rate_limit_mbit = {100},
                                         .background_mbit = -50};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // 0 stays valid: the §6 "unlimited" configuration.
  spec.population = Table1PopulationSpec{.rate_limit_mbit = {0}};
  EXPECT_NO_THROW(spec.validate());
}

TEST(Experiment, RecordOutcomesStreamsPerSecondTimeline) {
  Experiment experiment({.name = "fig7-like",
                         .population =
                             Table1PopulationSpec{.rate_limit_mbit = {250},
                                                  .background_mbit = 50,
                                                  .prior_mbit = 250},
                         .team = {.measurer_names = {"NL"},
                                  .capacity_bits = {net::mbit(1600)}},
                         .seed = 20210607,
                         .record_outcomes = true});

  struct TimelineSink : campaign::SlotSink {
    std::vector<core::SlotOutcome> outcomes;
    void slot_done(const campaign::SlotResult& slot) override {
      for (const auto& out : slot.outcomes) outcomes.push_back(out);
    }
  } sink;
  experiment.run(&sink);

  ASSERT_EQ(sink.outcomes.size(), 1u);
  EXPECT_EQ(sink.outcomes[0].x_bits.size(), 30u);
  EXPECT_EQ(sink.outcomes[0].y_clamped_bits.size(), 30u);
  EXPECT_GT(sink.outcomes[0].estimate_bits, 0.0);
}

TEST(Experiment, StreamedSinkOutputIdenticalAcrossThreadCounts) {
  // Acceptance criterion: a >= 3 period randomized-schedule experiment is
  // bit-identical between 1 and 8 threads at the sink level.
  const auto stream = [&](int threads) {
    ScenarioSpec spec = lab_spec({10, 25, 50, 75, 100, 150, 200, 250}, 77);
    spec.population = Table1PopulationSpec{
        .rate_limit_mbit = {10, 25, 50, 75, 100, 150, 200, 250},
        .prior_mbit = 40};
    spec.schedule = campaign::ScheduleMode::kRandomized;
    spec.periods = 3;
    spec.threads = threads;
    Experiment experiment(std::move(spec));
    std::ostringstream out;
    campaign::CsvSink sink(out);
    const auto result = experiment.run(&sink);
    EXPECT_EQ(result.periods.size(), 3u);
    return out.str();
  };

  const std::string serial = stream(1);
  const std::string parallel = stream(8);
  EXPECT_EQ(serial, parallel);
  // All three periods streamed through the one sink.
  EXPECT_NE(serial.find("\n2,"), std::string::npos);
}

TEST(Experiment, PriorFeedbackConvergesOnHonestPopulation) {
  // Priors start at 10 Mbit for relays up to 25x larger; the f ~ 2.95
  // allocation lets estimates grow geometrically, so the period-over-
  // period error must shrink (or hold once converged).
  ScenarioSpec spec = lab_spec({}, 20210618);
  spec.population = Table1PopulationSpec{
      .rate_limit_mbit = {50, 100, 150, 250}, .prior_mbit = 10};
  spec.periods = 5;
  Experiment experiment(std::move(spec));
  const auto result = experiment.run();

  ASSERT_EQ(result.periods.size(), 5u);
  const auto err = [&](int p) {
    return result.periods[static_cast<std::size_t>(p)]
        .summary.mean_abs_relative_error;
  };
  // Severely under-allocated at first...
  EXPECT_GT(err(0), 0.5);
  // ...monotonically improving (2% tolerance for converged-state noise)...
  for (int p = 1; p < 5; ++p) EXPECT_LE(err(p), err(p - 1) + 0.02);
  // ...and accurate once priors have caught up.
  EXPECT_LT(err(4), 0.10);
  EXPECT_LT(result.final_period.summary.mean_abs_relative_error, 0.10);
}

TEST(Experiment, LiarInflationBoundedByMaxInflation) {
  const std::vector<double> limits(10, 100.0);
  auto honest_spec = lab_spec(limits, 31);
  auto liar_spec = lab_spec(limits, 31);
  liar_spec.adversaries.liar_fraction = 0.5;

  Experiment honest(std::move(honest_spec));
  Experiment lying(std::move(liar_spec));
  const auto honest_result = honest.run().final_period;
  const auto liar_result = lying.run().final_period;

  const double bound = core::Params{}.max_inflation();  // 1/(1-r) = 1.33
  int liars_seen = 0;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    const auto& est = liar_result.relays[i];
    ASSERT_GT(est.ground_truth_bits, 0.0);
    if (lying.materialized().relays[i].behavior ==
        core::TargetBehavior::kLieAboutBackground) {
      ++liars_seen;
      // §5: lying about background traffic inflates the estimate, but
      // never beyond 1/(1-r) of capacity (modulo per-slot noise).
      const double inflation = est.estimate_bits / est.ground_truth_bits;
      EXPECT_GT(inflation, 1.05);
      EXPECT_LT(inflation, bound * 1.08);
    } else {
      EXPECT_LT(std::fabs(est.relative_error), 0.20);
    }
    EXPECT_FALSE(est.verification_failed);
  }
  EXPECT_GT(liars_seen, 1);
  EXPECT_LT(liars_seen, 9);
  // Network-wide the liars buy less than the per-relay bound.
  EXPECT_LT(liar_result.summary.total_estimated_bits,
            honest_result.summary.total_true_bits * bound);
}

TEST(Experiment, ForgersFailVerification) {
  ScenarioSpec spec = lab_spec(std::vector<double>(8, 100.0), 7);
  spec.adversaries.forger_fraction = 0.4;
  Experiment experiment(std::move(spec));
  const auto result = experiment.run().final_period;

  int forgers = 0;
  for (std::size_t i = 0; i < result.relays.size(); ++i) {
    const bool is_forger = experiment.materialized().relays[i].behavior ==
                           core::TargetBehavior::kForgeEchoes;
    forgers += is_forger;
    // The sampled spot check catches a 100 Mbit/s forger in a 30 s slot
    // with probability ~1 - e^-7 per slot.
    EXPECT_EQ(result.relays[i].verification_failed, is_forger);
  }
  EXPECT_GT(forgers, 0);
  EXPECT_EQ(result.summary.verification_failures, forgers);
}

TEST(Experiment, EmitsParsableBandwidthFile) {
  shadowsim::ShadowNetParams net_params;
  net_params.relays = 30;
  Experiment experiment(
      {.name = "shadow",
       .population = ShadowPopulationSpec{net_params, 11},
       .team = {.capacity_bits = {net::gbit(1), net::gbit(1), net::gbit(1)}},
       .periods = 2,
       .seed = 5});
  const auto result = experiment.run();

  ASSERT_EQ(result.periods.size(), 2u);
  const std::string text =
      experiment.bandwidth_file_text(1, result.final_period);
  const auto parsed = tor::parse_bandwidth_file(text);
  EXPECT_EQ(parsed.header.timestamp, 2 * 24 * 3600);
  EXPECT_EQ(parsed.entries.size(),
            result.final_period.relays.size() -
                static_cast<std::size_t>(
                    result.final_period.summary.verification_failures));
  for (const auto& entry : parsed.entries) EXPECT_GT(entry.weight, 0.0);
}

TEST(Experiment, PeriodHookObservesEveryPeriod) {
  auto spec = lab_spec({50, 100});
  spec.periods = 3;
  Experiment experiment(std::move(spec));
  std::vector<int> seen;
  const auto result = experiment.run(
      nullptr, [&](const Experiment::PeriodRecord& record,
                   const campaign::CampaignResult& period_result) {
        seen.push_back(record.period);
        EXPECT_EQ(period_result.relays.size(), 2u);
        EXPECT_GT(record.stats.wall_seconds, 0.0);
      });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(result.cancelled);
}

}  // namespace
}  // namespace flashflow::scenario
