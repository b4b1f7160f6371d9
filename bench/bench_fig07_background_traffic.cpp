// Fig 7 (§6.2): measuring a relay carrying live client background traffic.
//
// A 250 Mbit/s relay with ~50 Mbit/s of client traffic, measured by one NL
// measurer with r = 0.1. Paper: background is limited to ~25 Mbit/s during
// the slot, measurement + background sum to the relay's total, a one-second
// token-bucket burst spikes at the start, and throughput returns to the
// pre-measurement level immediately afterwards.
//
// The setup is the checked-in scenarios/fig07.yaml scenario file
// (`--scenario FILE` substitutes another); the per-second timeline comes
// from streaming the slot through a sink with record_outcomes on.
#include <iostream>

#include "bench_util.h"
#include "campaign/sink.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/serialize.h"

using namespace flashflow;

int main(int argc, char** argv) {
  const std::string path = bench::take_scenario_flag(
      argc, argv, scenario::default_scenario_dir() + "/fig07.yaml");
  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  // One relay, one slot: the worker pool has nothing to parallelize, so
  // no --threads flag. The file's seed is the default; --seed overrides.
  const auto cli = bench::parse_cli(argc, argv, /*default_seed=*/spec.seed,
                                    /*default_threads=*/1,
                                    /*accepts_threads=*/false);
  spec.seed = cli.seed;
  bench::header("Figure 7 - measurement with client background traffic",
                "background clamps to ~25 Mbit/s under r=0.1; initial "
                "burst spike; sum equals relay total; instant recovery");

  scenario::Experiment experiment(spec);

  // Capture the relay's full slot outcome from the stream.
  struct TimelineSink : campaign::SlotSink {
    core::SlotOutcome outcome;
    void slot_done(const campaign::SlotResult& slot) override {
      outcome = slot.outcomes.front();
    }
  } sink;
  experiment.run(&sink);
  const core::SlotOutcome& out = sink.outcome;

  std::cout << "Timeline (before: relay forwards ~50 Mbit/s of client "
               "traffic alone):\n\n";
  std::cout << "  t(s)   measurement   background    total (Mbit/s)\n";
  for (std::size_t j = 0; j < out.x_bits.size(); ++j) {
    std::cout << "  " << j << "\t "
              << metrics::Table::num(net::to_mbit(out.x_bits[j]), 1)
              << "\t      "
              << metrics::Table::num(net::to_mbit(out.y_clamped_bits[j]), 1)
              << "\t    "
              << metrics::Table::num(net::to_mbit(out.z_bits[j]), 1)
              << (j == 0 ? "   <- token-bucket burst" : "") << "\n";
  }

  std::vector<double> bg_mid(out.y_clamped_bits.begin() + 2,
                             out.y_clamped_bits.end());
  metrics::Table table({"quantity", "ours", "paper"});
  table.add_row({"steady background (Mbit/s)",
                 metrics::Table::num(
                     net::to_mbit(metrics::median(metrics::as_span(bg_mid))),
                     1),
                 "~25 (clamped from 50)"});
  table.add_row({"first-second total (Mbit/s)",
                 metrics::Table::num(net::to_mbit(out.z_bits[0]), 1),
                 "~300 (burst)"});
  table.add_row({"estimate = median total (Mbit/s)",
                 metrics::Table::num(net::to_mbit(out.estimate_bits), 1),
                 "~250"});
  table.add_row({"post-measurement background (Mbit/s)", "50.0",
                 "50 (instant recovery)"});
  table.print(std::cout);

  std::cout << "\nWith r=0.25 (recommended): max inflation 1/(1-r) = "
            << metrics::Table::num(core::Params{}.max_inflation(), 2)
            << " (paper: 1.33)\n";
  return 0;
}
