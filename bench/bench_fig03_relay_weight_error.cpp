// Fig 3: CDF of log10 per-relay mean weight error (Eq 5).
//
// Paper: more than 85% of relays are under-weighted relative to their
// capacity (log10 RWE < 0); few are ideally weighted.
#include <cmath>
#include <iostream>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "bench_util.h"
#include "metrics/cdf.h"

using namespace flashflow;

int main() {
  bench::header("Figure 3 - relay weight error CDF (log10)",
                ">85% of relays under-weighted (log10 RWE < 0)");

  analysis::PopulationParams pop;
  analysis::SyntheticArchive archive(
      analysis::generate_population(pop, 2 * 365, 20210603), 9);
  analysis::ErrorAnalysis weight_analysis;
  while (!archive.done()) weight_analysis.observe(archive.step_hour());

  metrics::Table table({"window", "frac under-weighted", "median log10 RWE",
                        "paper"});
  for (std::size_t w = 0; w < 4; ++w) {
    const auto rwe = weight_analysis.mean_rwe_per_relay(
        static_cast<analysis::Window>(w));
    std::vector<double> log_rwe;
    for (const double e : rwe)
      if (e > 0) log_rwe.push_back(std::log10(e));
    metrics::Cdf cdf(metrics::as_span(log_rwe));
    table.add_row({analysis::kWindowNames[w],
                   metrics::Table::pct(cdf.fraction_at_most(0.0)),
                   metrics::Table::num(cdf.quantile(0.5), 3),
                   w == 3 ? ">85% under" : "-"});
  }
  table.print(std::cout);

  std::cout << "\nYear-window log10(RWE) CDF:\n";
  const auto rwe =
      weight_analysis.mean_rwe_per_relay(analysis::Window::kYear);
  std::vector<double> log_rwe;
  for (const double e : rwe)
    if (e > 0) log_rwe.push_back(std::log10(e));
  metrics::Cdf cdf(metrics::as_span(log_rwe));
  for (const auto& pt : cdf.series(11))
    std::cout << "  " << metrics::Table::num(pt.x, 2) << " -> "
              << metrics::Table::num(pt.fraction) << "\n";
  return 0;
}
