#include "analysis/speedtest.h"

#include <algorithm>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "metrics/stats.h"

namespace flashflow::analysis {

SpeedTestResult run_speed_test_experiment(const SpeedTestConfig& config,
                                          std::uint64_t seed) {
  const int total_days = config.warmup_days + 3 + config.cooldown_days;
  auto population =
      generate_population(config.population, total_days, seed);
  SyntheticArchive archive(std::move(population), seed ^ 0xDEADBEEF);

  SpeedTestResult result;
  result.test_start_hour = static_cast<std::int64_t>(config.warmup_days) * 24;
  result.test_end_hour = result.test_start_hour + config.test_duration_hours;
  archive.set_speed_test(result.test_start_hour, result.test_end_hour);

  ErrorAnalysis weight_analysis;
  const std::int64_t horizon =
      std::min<std::int64_t>(archive.horizon_hours(),
                             static_cast<std::int64_t>(total_days) * 24);
  for (std::int64_t hour = 0; hour < horizon; ++hour) {
    const Snapshot snap = archive.step_hour();
    double total_adv = 0.0;
    for (const auto& r : snap.relays) total_adv += r.advertised_bits;
    result.capacity_series_bits.push_back(total_adv);
    weight_analysis.observe(snap);
  }
  result.weight_error_series =
      weight_analysis.nwe_series(Window::kMonth);

  // Baseline: mean over the last pre-test day; peak: max afterwards.
  const auto day_before_start =
      static_cast<std::size_t>(std::max<std::int64_t>(
          result.test_start_hour - 24, 0));
  std::vector<double> pre_cap, pre_err;
  for (std::size_t h = day_before_start;
       h < static_cast<std::size_t>(result.test_start_hour); ++h) {
    pre_cap.push_back(result.capacity_series_bits[h]);
    pre_err.push_back(result.weight_error_series[h]);
  }
  result.baseline_capacity_bits = metrics::mean(metrics::as_span(pre_cap));
  result.baseline_weight_error = metrics::mean(metrics::as_span(pre_err));

  for (std::size_t h = static_cast<std::size_t>(result.test_start_hour);
       h < result.capacity_series_bits.size(); ++h) {
    result.peak_capacity_bits =
        std::max(result.peak_capacity_bits, result.capacity_series_bits[h]);
    result.peak_weight_error =
        std::max(result.peak_weight_error, result.weight_error_series[h]);
  }
  return result;
}

}  // namespace flashflow::analysis
