#include "metrics/error_metrics.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace flashflow::metrics {

double relay_capacity_error(double advertised, double true_capacity) {
  if (true_capacity <= 0.0)
    throw std::invalid_argument("relay_capacity_error: capacity <= 0");
  return 1.0 - advertised / true_capacity;
}

double network_capacity_error(std::span<const double> advertised,
                              std::span<const double> true_capacity) {
  if (advertised.size() != true_capacity.size())
    throw std::invalid_argument("network_capacity_error: size mismatch");
  const double sum_a =
      std::accumulate(advertised.begin(), advertised.end(), 0.0);
  const double sum_c =
      std::accumulate(true_capacity.begin(), true_capacity.end(), 0.0);
  if (sum_c <= 0.0)
    throw std::invalid_argument("network_capacity_error: capacity sum <= 0");
  return 1.0 - sum_a / sum_c;
}

std::vector<double> normalize(std::span<const double> values) {
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("normalize: sum <= 0");
  std::vector<double> out(values.begin(), values.end());
  for (double& v : out) v /= total;
  return out;
}

double relay_weight_error(double normalized_weight,
                          double normalized_capacity) {
  if (normalized_capacity <= 0.0)
    throw std::invalid_argument("relay_weight_error: capacity <= 0");
  return normalized_weight / normalized_capacity;
}

double network_weight_error(std::span<const double> normalized_weights,
                            std::span<const double> normalized_capacities) {
  if (normalized_weights.size() != normalized_capacities.size())
    throw std::invalid_argument("network_weight_error: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < normalized_weights.size(); ++i)
    total += std::abs(normalized_weights[i] - normalized_capacities[i]);
  return total / 2.0;
}

}  // namespace flashflow::metrics
