// Fig 1: CDF of per-relay mean capacity error (Eq 2) over the synthetic
// metrics archive, for windows of a day, week, month, and year.
//
// Paper: median mean-RCE grows from 7% (day) to 28% (year); >=85% of relays
// have non-zero error; 75th percentile >= 18% (day) and >= 49% (year).
#include <iostream>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "bench_util.h"
#include "metrics/cdf.h"

using namespace flashflow;

int main() {
  bench::header("Figure 1 - relay capacity error CDF",
                "median mean-RCE: day 7%, year 28%; p75: day >=18%, year "
                ">=49%; >85% of relays have non-zero error");

  // Three simulated years at 5% network scale (the full 11-year archive
  // shape stabilizes well before that).
  analysis::PopulationParams pop;
  analysis::SyntheticArchive archive(
      analysis::generate_population(pop, 3 * 365, /*seed=*/20210601), 7);
  analysis::ErrorAnalysis cap_analysis;
  while (!archive.done()) cap_analysis.observe(archive.step_hour());

  metrics::Table table({"window", "median mean-RCE", "p75", "frac >0",
                        "paper median", "paper p75"});
  const std::vector<std::string> paper_median = {"7%", "-", "-", "28%"};
  const std::vector<std::string> paper_p75 = {">=18%", "-", "-", ">=49%"};
  for (std::size_t w = 0; w < 4; ++w) {
    const auto errors = cap_analysis.mean_rce_per_relay(
        static_cast<analysis::Window>(w));
    metrics::Cdf cdf(metrics::as_span(errors));
    table.add_row({analysis::kWindowNames[w],
                   metrics::Table::pct(cdf.quantile(0.5)),
                   metrics::Table::pct(cdf.quantile(0.75)),
                   metrics::Table::pct(1.0 - cdf.fraction_at_most(1e-9)),
                   paper_median[w], paper_p75[w]});
  }
  table.print(std::cout);

  std::cout << "\nYear-window CDF series (x = mean RCE, y = cumulative "
               "fraction):\n";
  const auto errors =
      cap_analysis.mean_rce_per_relay(analysis::Window::kYear);
  metrics::Cdf cdf(metrics::as_span(errors));
  for (const auto& pt : cdf.series(11))
    std::cout << "  " << metrics::Table::pct(pt.x) << " -> "
              << metrics::Table::num(pt.fraction) << "\n";
  return 0;
}
