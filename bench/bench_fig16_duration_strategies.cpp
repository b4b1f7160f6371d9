// Fig 16 (Appendix E.3): measurement duration strategies.
//
// Taking the median of the first 10/20/30/60 seconds of m = 2.25 runs.
// Paper: ranges widen as durations shrink; the 30-second median is the
// tightest, with all results in [0.84, 1.01] of ground truth.
#include <iostream>

#include "bench_util.h"
#include "core/measurement.h"
#include "core/strategies.h"
#include "metrics/cdf.h"
#include "net/units.h"
#include "tor/cpu_model.h"

using namespace flashflow;

int main() {
  bench::header("Figure 16 - duration strategies",
                "30 s median tightest: all runs within [0.84, 1.01] of "
                "ground truth");

  const auto topo = net::make_table1_hosts();
  core::Params params;
  params.slot_seconds = 60;  // collect 60 s, emulate shorter medians

  const std::vector<double> limits = {10, 250, 500, 750, 0};
  const std::vector<int> strategy_seconds = {10, 20, 30, 60};
  std::vector<std::vector<double>> fracs(strategy_seconds.size());

  std::uint64_t seed = 9000;
  for (const double limit : limits) {
    tor::RelayModel relay;
    relay.name = "target";
    relay.nic_up_bits = relay.nic_down_bits = net::mbit(954);
    relay.rate_limit_bits = limit > 0 ? net::mbit(limit) : 0.0;
    relay.cpu = tor::CpuModel::us_sw();
    const double gt = relay.ground_truth(params.sockets);

    for (int rep = 0; rep < 40; ++rep) {
      core::SlotRunner runner(topo, params, sim::Rng(seed++));
      const core::MeasurerSlot m{topo.find("NL"),
                                 params.excess_factor() * gt, 160};
      const auto out = runner.run(relay, topo.find("US-SW"), {&m, 1});
      for (std::size_t s = 0; s < strategy_seconds.size(); ++s)
        fracs[s].push_back(
            core::median_strategy(out.z_bits, strategy_seconds[s]) / gt);
    }
  }

  metrics::Table table({"strategy", "min", "p5", "median", "p95", "max",
                        "paper"});
  for (std::size_t s = 0; s < strategy_seconds.size(); ++s) {
    metrics::Cdf cdf{metrics::as_span(fracs[s])};
    table.add_row({std::to_string(strategy_seconds[s]) + "s median",
                   metrics::Table::num(cdf.quantile(0.0), 3),
                   metrics::Table::num(cdf.quantile(0.05), 3),
                   metrics::Table::num(cdf.quantile(0.5), 3),
                   metrics::Table::num(cdf.quantile(0.95), 3),
                   metrics::Table::num(cdf.quantile(1.0), 3),
                   strategy_seconds[s] == 30 ? "[0.84, 1.01]" : "-"});
  }
  table.print(std::cout);
  std::cout << "\nNote: the first-second token-bucket burst makes very "
               "short strategies noisier, matching the paper's widening "
               "ranges.\n";
  return 0;
}
