// Fig 5 (§3.4): the live relay speed-test experiment.
//
// Paper: flooding every relay for 20 s over 51 hours raised the estimated
// network capacity by ~200 Gbit/s (~50%), and network weight error rose by
// 5-10 percentage points (to a max of 23%) before recovering.
//
// Like Figs 1-4 and 10, this analyses the synthetic Tor-metrics archive,
// not measurement slots: analysis::run_speed_test_experiment with
// SpeedTestConfig's defaults, the paper's 30-day warmup, 51-hour flood and
// 10-day cooldown over the default 5%-scale population (220 initial
// relays).
#include <iostream>

#include "analysis/speedtest.h"
#include "bench_util.h"
#include "net/units.h"

using namespace flashflow;

int main(int argc, char** argv) {
  // The archive experiment is single-threaded; no --threads flag.
  const auto cli = bench::parse_cli(argc, argv, /*default_seed=*/20210605,
                                    /*default_threads=*/1,
                                    /*accepts_threads=*/false);
  bench::header("Figure 5 - relay speed test experiment (§3.4)",
                "network capacity estimate +~50% during test; weight error "
                "+5-10 points, then recovery");

  const auto result = analysis::run_speed_test_experiment(
      analysis::SpeedTestConfig{}, cli.seed);

  const double rise = result.peak_capacity_bits /
                          result.baseline_capacity_bits -
                      1.0;
  const double err_rise =
      result.peak_weight_error - result.baseline_weight_error;

  metrics::Table table({"quantity", "ours", "paper"});
  table.add_row({"baseline capacity (Gbit/s, 5% scale)",
                 metrics::Table::num(
                     net::to_gbit(result.baseline_capacity_bits), 2),
                 "~20 (400 full-scale)"});
  table.add_row({"peak capacity (Gbit/s, 5% scale)",
                 metrics::Table::num(
                     net::to_gbit(result.peak_capacity_bits), 2),
                 "~30 (600 full-scale)"});
  table.add_row({"capacity rise", metrics::Table::pct(rise), "~50%"});
  table.add_row({"baseline weight error",
                 metrics::Table::pct(result.baseline_weight_error),
                 "~13-15%"});
  table.add_row({"peak weight error",
                 metrics::Table::pct(result.peak_weight_error),
                 "up to 23%"});
  table.add_row({"weight error rise (points)",
                 metrics::Table::num(err_rise * 100, 1), "5-10"});
  table.print(std::cout);

  // Hourly capacity series around the test window (every 6 hours).
  std::cout << "\nCapacity series (Gbit/s at 5% scale; test at hour "
            << result.test_start_hour << "-" << result.test_end_hour
            << "):\n";
  for (std::size_t h = 0; h < result.capacity_series_bits.size(); h += 6) {
    if (static_cast<std::int64_t>(h) <
        result.test_start_hour - 72)
      continue;
    std::cout << "  h" << h << ": "
              << metrics::Table::num(
                     net::to_gbit(result.capacity_series_bits[h]), 2)
              << "  NWE="
              << metrics::Table::pct(result.weight_error_series[h])
              << (static_cast<std::int64_t>(h) >= result.test_start_hour &&
                          static_cast<std::int64_t>(h) <
                              result.test_end_hour
                      ? "   <- speed test active"
                      : "")
              << "\n";
  }
  return 0;
}
