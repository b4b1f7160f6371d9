// Fig 2: network capacity error (Eq 3) over time for the four windows.
//
// Paper: median NCE 5% (day), 14% (week), 22% (month), 36% (year);
// maximum observed 60%.
#include <iostream>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "bench_util.h"

using namespace flashflow;

int main() {
  bench::header("Figure 2 - network capacity error over time",
                "median NCE: day 5%, week 14%, month 22%, year 36%; "
                "max ~60%");

  analysis::PopulationParams pop;
  analysis::SyntheticArchive archive(
      analysis::generate_population(pop, 3 * 365, 20210602), 8);
  analysis::ErrorAnalysis cap_analysis;
  while (!archive.done()) cap_analysis.observe(archive.step_hour());

  metrics::Table table(
      {"window", "median NCE", "p95 NCE", "max NCE", "paper median"});
  const std::vector<std::string> paper = {"5%", "14%", "22%", "36%"};
  for (std::size_t w = 0; w < 4; ++w) {
    // Skip the first year: year-window maxima need history to fill.
    const auto& all = cap_analysis.nce_series(
        static_cast<analysis::Window>(w));
    const std::vector<double> series(all.begin() + 365 * 24, all.end());
    table.add_row({analysis::kWindowNames[w],
                   metrics::Table::pct(metrics::median(
                       metrics::as_span(series))),
                   metrics::Table::pct(metrics::percentile(
                       metrics::as_span(series), 95)),
                   metrics::Table::pct(metrics::max_value(
                       metrics::as_span(series))),
                   paper[w]});
  }
  table.print(std::cout);
  return 0;
}
