// Quickstart: measure a Tor relay with FlashFlow's scenario API.
//
// A scenario declares *what* to measure — population, measurer team,
// protocol parameters — and scenario::Experiment does the wiring: the
// §4.2 iPerf measurer mesh, greedy capacity allocation, the 30-second
// §4.1 slot, and verification. Here the paper's Table 1 vantage points
// measure one 250 Mbit/s relay carrying 50 Mbit/s of client traffic.
//
//   ./examples/example_quickstart [scenario-file]
#include <iostream>

#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/serialize.h"

using namespace flashflow;

int main(int argc, char** argv) {
  // The experiment is declared in scenarios/quickstart.yaml: one
  // 250 Mbit/s relay on US-SW with 50 Mbit/s of background client
  // traffic, measured by the four remaining Table 1 hosts (their
  // capacities estimated by the §4.2 iPerf mesh). Pass a path to run a
  // different scenario file.
  const std::string path =
      argc > 1 ? argv[1]
               : scenario::default_scenario_dir() + "/quickstart.yaml";
  scenario::Experiment experiment(scenario::load_scenario_file(path));

  // The measurer team, resolved from the mesh.
  const auto& mat = experiment.materialized();
  std::cout << "Measurer capacities (from the iPerf mesh):\n";
  const auto& caps = experiment.measurer_capacities();
  for (std::size_t i = 0; i < mat.measurer_hosts.size(); ++i)
    std::cout << "  " << mat.topology.host(mat.measurer_hosts[i]).name
              << ": " << net::to_mbit(caps[i]) << " Mbit/s\n";

  // Measure. One period: allocation f * z0 across the team, a 30-second
  // slot, echo verification, estimate = median per-second throughput.
  const auto result = experiment.run().final_period;
  const auto& est = result.relays.front();

  std::cout << "\nMeasured " << mat.relays.front().model.name << " in slot "
            << est.slot << ":\n"
            << "  estimate     : " << net::to_mbit(est.estimate_bits)
            << " Mbit/s\n"
            << "  ground truth : " << net::to_mbit(est.ground_truth_bits)
            << " Mbit/s\n"
            << "  error        : " << est.relative_error * 100 << "%\n"
            << "  verified     : "
            << (est.verification_failed ? "FAILED" : "ok") << "\n";
  return 0;
}
