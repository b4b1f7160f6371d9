// Measurement verification (§4.1, §5).
//
// The measurer records each sent cell's plaintext with probability p and
// checks the returned contents. A relay that forges k responses evades
// detection only if none of the k forged cells was recorded:
// Pr[undetected] = (1 - p)^k. These helpers compute that math and simulate
// the sampled check for fluid slots (where cells are not individually
// materialized).
#pragma once

#include <cstdint>

#include "sim/random.h"

namespace flashflow::core {

/// Probability that a relay forging `forged_cells` responses evades
/// detection entirely: (1 - p)^k.
double evasion_probability(double check_probability,
                           std::uint64_t forged_cells);

/// Samples whether a forging relay is caught during a slot that carried
/// `total_bytes` of measurement traffic in `cell_size`-byte cells, with
/// spot-check probability p. (A checked forged cell mismatches with
/// overwhelming probability, so detection == "any forged cell checked".)
bool sample_detection(double check_probability, double total_bytes,
                      double cell_size, sim::Rng& rng);

}  // namespace flashflow::core
