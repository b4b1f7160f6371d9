// §7 "Network Measurement Efficiency": how fast can FlashFlow measure the
// whole Tor network?
//
// Paper: a team of 3 x 1 Gbit/s measurers covers the July-2019 network
// (median 6,419 relays, 608 Gbit/s) in ~599 30-second slots = ~5 hours;
// new relays (median 3/consensus, prior 51 Mbit/s) are measured within
// 30 s median (max 13 minutes for a 98-relay burst).
//
// The whole-network layout is the checked-in scenarios/sec7.yaml
// scenario file (`--scenario FILE` substitutes another). scenario::plan()
// lays out period 0 with the run's own priors and packing.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "core/schedule.h"
#include "net/units.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"

using namespace flashflow;

int main(int argc, char** argv) {
  const std::string path = bench::take_scenario_flag(
      argc, argv, scenario::default_scenario_dir() + "/sec7.yaml");
  // July-2019-like capacity sample: 6,419 relays, largest 998 Mbit/s,
  // total ~608 Gbit/s, measured by three 1 Gbit/s measurers.
  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  // Schedule-only analysis (scenario::plan()); no worker pool, so no
  // --threads flag. The file's seed is the default; --seed overrides.
  const auto cli = bench::parse_cli(argc, argv, /*default_seed=*/spec.seed,
                                    /*default_threads=*/1,
                                    /*accepts_threads=*/false);
  spec.seed = cli.seed;
  bench::header("§7 - network measurement efficiency",
                "whole network in ~5 h (599 slots) with 3x1 Gbit/s; new "
                "relays within ~30 s median");

  const auto plan = scenario::plan(spec);
  const double hours = plan.simulated_seconds / 3600.0;

  metrics::Table table({"quantity", "ours", "paper"});
  table.add_row({"relays", std::to_string(plan.relays),
                 "6,419 (median day)"});
  table.add_row({"total capacity (Gbit/s)",
                 metrics::Table::num(net::to_gbit(plan.total_prior_bits), 0),
                 "608"});
  table.add_row({"excess factor f",
                 metrics::Table::num(spec.params.excess_factor(), 2),
                 "2.84-2.95"});
  table.add_row({"slots needed", std::to_string(plan.slots_used), "599"});
  table.add_row({"hours", metrics::Table::num(hours, 1), "~5"});
  table.print(std::cout);

  // New relays: FCFS into the randomized schedule's leftover capacity,
  // on top of the same priors the plan above packed.
  std::vector<double> delays_s;
  for (int burst : {1, 3, 10, 98}) {
    core::PeriodSchedule fresh(spec.params, plan.team_capacity_bits,
                               cli.seed + 100 + burst);
    fresh.schedule_old_relays(plan.priors);
    int worst_slot = 0;
    for (int i = 0; i < burst; ++i)
      worst_slot =
          std::max(worst_slot, fresh.schedule_new_relay(net::mbit(51)));
    delays_s.push_back(worst_slot * spec.params.slot_seconds);
    std::cout << "  burst of " << burst
              << " new relays: last measured after slot " << worst_slot
              << " (" << worst_slot * spec.params.slot_seconds << " s)\n";
  }
  std::cout << "\nPaper: median time-to-measure for new relays 30 s; max "
               "13 minutes for the largest burst (98 relays).\n";
  return 0;
}
