// Capacity-estimate acceptance and retry logic (§4.2).
//
// A slot's estimate z is accepted only if it is small enough relative to the
// allocated capacity that it could only have come from a true capacity close
// to z:   accept  iff  z < sum(a_i) * (1 - eps1) / m.
// When accepted, the true capacity x satisfies
// z/(1+eps2) < x < z/(1-eps1), i.e. z in ((1-eps1)x, (1+eps2)x).
// Otherwise the relay is re-measured with guess z0' = max(z, 2*z0).
//
// New relays (unseen for a month) start from the 75th-percentile measured
// capacity of the past month.
#pragma once

#include <span>

#include "core/params.h"

namespace flashflow::core {

struct AcceptanceResult {
  bool accepted = false;
  double threshold_bits = 0;  // sum(a_i)(1-eps1)/m
};

/// Evaluates a slot estimate against the §4.2 acceptance condition.
AcceptanceResult evaluate_estimate(double estimate_bits,
                                   std::span<const double> allocations,
                                   const Params& params);

/// Next capacity guess after a failed (too-high) measurement:
/// max(z, 2 * z0) — guarantees the allocated capacity at least doubles.
double next_guess(double estimate_bits, double previous_guess_bits);

/// Prior capacity guess for new relays: the 75th percentile of the given
/// measured capacities (§4.2 "Measuring New Relays"). Requires non-empty.
double new_relay_prior(std::span<const double> measured_capacities);

}  // namespace flashflow::core
