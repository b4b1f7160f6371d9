#include "core/verification.h"

#include <cmath>
#include <stdexcept>

namespace flashflow::core {

double evasion_probability(double check_probability,
                           std::uint64_t forged_cells) {
  if (check_probability < 0.0 || check_probability > 1.0)
    throw std::invalid_argument("evasion_probability: bad p");
  // (1-p)^k computed in log space for numerical stability.
  if (check_probability >= 1.0) return forged_cells == 0 ? 1.0 : 0.0;
  return std::exp(static_cast<double>(forged_cells) *
                  std::log1p(-check_probability));
}

bool sample_detection(double check_probability, double total_bytes,
                      double cell_size, sim::Rng& rng) {
  if (cell_size <= 0.0)
    throw std::invalid_argument("sample_detection: bad cell size");
  const auto cells = static_cast<std::uint64_t>(total_bytes / cell_size);
  const double p_evade = evasion_probability(check_probability, cells);
  return !rng.chance(p_evade);
}

}  // namespace flashflow::core
