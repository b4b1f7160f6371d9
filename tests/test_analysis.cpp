#include <gtest/gtest.h>

#include <set>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "analysis/speedtest.h"
#include "metrics/stats.h"
#include "net/units.h"

namespace flashflow::analysis {
namespace {

PopulationParams small_params() {
  PopulationParams p;
  p.initial_relays = 60;
  return p;
}

TEST(Population, CapacitiesWithinBounds) {
  const auto pop = generate_population(small_params(), 30, 1);
  ASSERT_GE(pop.size(), 60u);
  for (const auto& r : pop) {
    EXPECT_GE(r.capacity_bits, small_params().min_capacity_bits);
    EXPECT_LE(r.capacity_bits, small_params().max_capacity_bits);
    EXPECT_LT(r.join_hour, r.leave_hour);
    if (r.rate_limit_bits > 0) {
      EXPECT_LE(r.rate_limit_bits, r.capacity_bits);
    }
  }
}

TEST(Population, FingerprintsUnique) {
  const auto pop = generate_population(small_params(), 60, 2);
  std::set<std::string> names;
  for (const auto& r : pop) names.insert(r.fingerprint);
  EXPECT_EQ(names.size(), pop.size());
}

TEST(Population, ChurnCreatesArrivals) {
  const auto pop = generate_population(small_params(), 365, 3);
  int late_joiners = 0;
  for (const auto& r : pop)
    if (r.join_hour > 0) ++late_joiners;
  EXPECT_GT(late_joiners, 50);  // ~0.45%/day churn over a year
}

TEST(Population, DeterministicInSeed) {
  const auto a = generate_population(small_params(), 30, 7);
  const auto b = generate_population(small_params(), 30, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].capacity_bits, b[i].capacity_bits);
}

TEST(Archive, AdvertisedNeverExceedsCapacity) {
  SyntheticArchive archive(generate_population(small_params(), 20, 4), 5);
  for (int h = 0; h < 20 * 24; ++h) {
    const auto snap = archive.step_hour();
    for (const auto& r : snap.relays) {
      EXPECT_LE(r.advertised_bits, r.true_capacity_bits * 1.0 + 1.0);
      EXPECT_GT(r.advertised_bits, 0.0);
    }
  }
}

TEST(Archive, UnderutilizationCausesUnderestimates) {
  SyntheticArchive archive(generate_population(small_params(), 30, 5), 6);
  Snapshot last;
  for (int h = 0; h < 30 * 24; ++h) last = archive.step_hour();
  double total_adv = 0, total_cap = 0;
  for (const auto& r : last.relays) {
    total_adv += r.advertised_bits;
    total_cap += r.true_capacity_bits;
  }
  // The §3 phenomenon: the network's advertised total underestimates
  // its true capacity.
  EXPECT_LT(total_adv, total_cap);
  EXPECT_GT(total_adv, total_cap * 0.2);
}

TEST(Archive, SpeedTestRaisesAdvertised) {
  auto pop = generate_population(small_params(), 20, 7);
  SyntheticArchive archive(std::move(pop), 8);
  archive.set_speed_test(10 * 24, 10 * 24 + 51);
  // Compare advertised/capacity ratios so relay churn in the short test
  // window does not confound the totals.
  double before_ratio = 0, during_ratio = 0;
  for (int h = 0; h < 14 * 24; ++h) {
    const auto snap = archive.step_hour();
    double adv = 0, cap = 0;
    for (const auto& r : snap.relays) {
      adv += r.advertised_bits;
      cap += r.true_capacity_bits;
    }
    if (h == 10 * 24 - 1) before_ratio = adv / cap;
    if (h == 12 * 24 - 1) during_ratio = adv / cap;  // post publish interval
  }
  EXPECT_GT(during_ratio, before_ratio * 1.15);
  EXPECT_GT(during_ratio, 0.85);  // flood pins estimates near capacity
}

TEST(ErrorAnalysis, LongerWindowsLargerCapacityError) {
  SyntheticArchive archive(generate_population(small_params(), 90, 9), 10);
  ErrorAnalysis analysis;
  for (int h = 0; h < 90 * 24; ++h) analysis.observe(archive.step_hour());
  const auto day = analysis.mean_rce_per_relay(Window::kDay);
  const auto month = analysis.mean_rce_per_relay(Window::kMonth);
  ASSERT_FALSE(day.empty());
  ASSERT_FALSE(month.empty());
  // Fig 1: errors grow with the window length.
  EXPECT_GT(metrics::median(metrics::as_span(month)),
            metrics::median(metrics::as_span(day)));
  // All errors are valid fractions.
  for (const double e : month) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(ErrorAnalysis, NceSeriesBounded) {
  SyntheticArchive archive(generate_population(small_params(), 40, 11), 12);
  ErrorAnalysis analysis;
  for (int h = 0; h < 40 * 24; ++h) analysis.observe(archive.step_hour());
  const auto& series = analysis.nce_series(Window::kWeek);
  ASSERT_EQ(series.size(), 40u * 24u);
  for (const double e : series) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(ErrorAnalysis, WeightErrorsMostlyUnderweighted) {
  SyntheticArchive archive(generate_population(small_params(), 60, 13), 14);
  ErrorAnalysis analysis;
  for (int h = 0; h < 60 * 24; ++h) analysis.observe(archive.step_hour());
  const auto rwe = analysis.mean_rwe_per_relay(Window::kMonth);
  ASSERT_FALSE(rwe.empty());
  int under = 0;
  for (const double e : rwe)
    if (e < 1.0) ++under;
  // Fig 3: the majority of relays are under-weighted.
  EXPECT_GT(static_cast<double>(under) / rwe.size(), 0.5);
  const auto& nwe = analysis.nwe_series(Window::kMonth);
  for (const double e : nwe) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(ErrorAnalysis, VariationGrowsWithWindow) {
  SyntheticArchive archive(generate_population(small_params(), 60, 15), 16);
  VariationAnalysis analysis;
  for (int h = 0; h < 60 * 24; ++h) analysis.observe(archive.step_hour());
  const auto day = analysis.mean_advertised_rsd_per_relay(Window::kDay);
  const auto month = analysis.mean_advertised_rsd_per_relay(Window::kMonth);
  ASSERT_FALSE(day.empty());
  // Fig 10a: RSD increases with window length.
  EXPECT_GT(metrics::median(metrics::as_span(month)),
            metrics::median(metrics::as_span(day)));
  const auto weights = analysis.mean_weight_rsd_per_relay(Window::kMonth);
  for (const double v : weights) EXPECT_GE(v, 0.0);
}

TEST(SpeedTest, CapacityRisesAndWeightErrorSpikes) {
  SpeedTestConfig config;
  config.population = small_params();
  config.warmup_days = 15;
  config.cooldown_days = 6;
  const auto result = run_speed_test_experiment(config, 17);
  // Fig 5: capacity estimates rise substantially during the flood...
  EXPECT_GT(result.peak_capacity_bits, result.baseline_capacity_bits * 1.2);
  // ...and weight error rises while the lagging weights disagree.
  EXPECT_GT(result.peak_weight_error, result.baseline_weight_error);
  EXPECT_EQ(result.capacity_series_bits.size(),
            result.weight_error_series.size());
}

}  // namespace
}  // namespace flashflow::analysis
