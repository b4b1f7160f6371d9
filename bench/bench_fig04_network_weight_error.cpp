// Fig 4: network weight error (Eq 6) over time.
//
// Paper: median NWE 21% (day), 22% (week), 24% (month), 30% (year);
// 15-25% over the latest year of data.
#include <iostream>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "bench_util.h"

using namespace flashflow;

int main() {
  bench::header("Figure 4 - network weight error over time",
                "median NWE: day 21%, week 22%, month 24%, year 30%");

  analysis::PopulationParams pop;
  analysis::SyntheticArchive archive(
      analysis::generate_population(pop, 2 * 365, 20210604), 10);
  analysis::ErrorAnalysis weight_analysis;
  while (!archive.done()) weight_analysis.observe(archive.step_hour());

  metrics::Table table(
      {"window", "median NWE", "p90 NWE", "paper median"});
  const std::vector<std::string> paper = {"21%", "22%", "24%", "30%"};
  for (std::size_t w = 0; w < 4; ++w) {
    const auto& all =
        weight_analysis.nwe_series(static_cast<analysis::Window>(w));
    // Skip warm-up while trailing maxima fill.
    const std::vector<double> series(all.begin() + 180 * 24, all.end());
    table.add_row({analysis::kWindowNames[w],
                   metrics::Table::pct(
                       metrics::median(metrics::as_span(series))),
                   metrics::Table::pct(
                       metrics::percentile(metrics::as_span(series), 90)),
                   paper[w]});
  }
  table.print(std::cout);
  return 0;
}
