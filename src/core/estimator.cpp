#include "core/estimator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "metrics/stats.h"

namespace flashflow::core {

AcceptanceResult evaluate_estimate(double estimate_bits,
                                   std::span<const double> allocations,
                                   const Params& params) {
  const double total =
      std::accumulate(allocations.begin(), allocations.end(), 0.0);
  AcceptanceResult r;
  r.threshold_bits = total * (1.0 - params.epsilon1) / params.multiplier;
  r.accepted = estimate_bits < r.threshold_bits;
  return r;
}

double next_guess(double estimate_bits, double previous_guess_bits) {
  return std::max(estimate_bits, 2.0 * previous_guess_bits);
}

double new_relay_prior(std::span<const double> measured_capacities) {
  if (measured_capacities.empty())
    throw std::invalid_argument("new_relay_prior: no capacities");
  return metrics::percentile(measured_capacities, 75.0);
}

}  // namespace flashflow::core
