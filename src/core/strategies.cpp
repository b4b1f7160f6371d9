#include "core/strategies.h"

#include <stdexcept>

#include "metrics/stats.h"

namespace flashflow::core {

double median_strategy(std::span<const double> per_second_bits,
                       int seconds) {
  if (seconds < 1 ||
      static_cast<std::size_t>(seconds) > per_second_bits.size())
    throw std::invalid_argument("median_strategy: bad duration");
  return metrics::median(
      per_second_bits.subspan(0, static_cast<std::size_t>(seconds)));
}

}  // namespace flashflow::core
