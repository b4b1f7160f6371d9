// Fig 10 (Appendix A): variation of relay capacities and weights.
//
// Paper: median mean-RSD of advertised bandwidth 32% (day), 55% (week),
// 62% (month), 65% (year); for normalized weights 14/31/43/50%; p75 of the
// week window >= 27%, p25 >= 82%.
#include <iostream>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "bench_util.h"
#include "metrics/cdf.h"

using namespace flashflow;

int main() {
  bench::header("Figure 10 - relay capacity and weight variation (RSD)",
                "median advertised-bw RSD: 32/55/62/65% by window; weight "
                "RSD: 14/31/43/50%");

  analysis::PopulationParams pop;
  analysis::SyntheticArchive archive(
      analysis::generate_population(pop, 2 * 365, 20210619), 11);
  analysis::VariationAnalysis variation;
  while (!archive.done()) variation.observe(archive.step_hour());

  metrics::Table adv_table(
      {"window", "median RSD", "p75 RSD", "paper median"});
  const std::vector<std::string> paper_adv = {"32%", "55%", "62%", "65%"};
  for (std::size_t w = 0; w < 4; ++w) {
    const auto rsd = variation.mean_advertised_rsd_per_relay(
        static_cast<analysis::Window>(w));
    metrics::Cdf cdf{metrics::as_span(rsd)};
    adv_table.add_row({analysis::kWindowNames[w],
                       metrics::Table::pct(cdf.quantile(0.5)),
                       metrics::Table::pct(cdf.quantile(0.75)),
                       paper_adv[w]});
  }
  std::cout << "(a) Advertised bandwidth RSD per relay:\n";
  adv_table.print(std::cout);

  metrics::Table w_table(
      {"window", "median RSD", "p75 RSD", "paper median"});
  const std::vector<std::string> paper_w = {"14%", "31%", "43%", "50%"};
  for (std::size_t w = 0; w < 4; ++w) {
    const auto rsd = variation.mean_weight_rsd_per_relay(
        static_cast<analysis::Window>(w));
    metrics::Cdf cdf{metrics::as_span(rsd)};
    w_table.add_row({analysis::kWindowNames[w],
                     metrics::Table::pct(cdf.quantile(0.5)),
                     metrics::Table::pct(cdf.quantile(0.75)),
                     paper_w[w]});
  }
  std::cout << "\n(b) Normalized consensus weight RSD per relay:\n";
  w_table.print(std::cout);
  return 0;
}
