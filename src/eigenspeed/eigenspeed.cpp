#include "eigenspeed/eigenspeed.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace flashflow::eigenspeed {

ObservationMatrix::ObservationMatrix(std::size_t n)
    : n_(n), data_(n * n, 0.0) {
  if (n == 0) throw std::invalid_argument("ObservationMatrix: empty");
}

double ObservationMatrix::at(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) throw std::out_of_range("ObservationMatrix::at");
  return data_[i * n_ + j];
}

void ObservationMatrix::set(std::size_t i, std::size_t j, double value) {
  if (i >= n_ || j >= n_) throw std::out_of_range("ObservationMatrix::set");
  data_[i * n_ + j] = value;
}

ObservationMatrix honest_observations(std::span<const double> capacities,
                                      double noise_sigma, sim::Rng& rng) {
  const std::size_t n = capacities.size();
  ObservationMatrix obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double base = std::min(capacities[i], capacities[j]);
      const double noise = rng.log_normal(
          -0.5 * noise_sigma * noise_sigma, noise_sigma);
      obs.set(i, j, base * noise);
    }
  }
  return obs;
}

void apply_collusion(ObservationMatrix& obs,
                     std::span<const std::size_t> colluders,
                     double inflation) {
  // The targeted liar strategy: colluders report inflated throughput for
  // each other AND deflated throughput for everyone else. Under row
  // normalization this turns the clique into a near-absorbing set for the
  // power iteration, concentrating eigenvector mass on the colluders.
  for (const std::size_t i : colluders) {
    for (std::size_t j = 0; j < obs.size(); ++j) {
      if (i == j) continue;
      const bool j_colludes =
          std::find(colluders.begin(), colluders.end(), j) !=
          colluders.end();
      obs.set(i, j, j_colludes ? obs.at(i, j) * inflation
                               : obs.at(i, j) / inflation);
    }
  }
}

std::vector<double> compute_weights(const ObservationMatrix& obs,
                                    const std::vector<bool>& trusted,
                                    const EigenSpeedParams& params) {
  const std::size_t n = obs.size();
  if (trusted.size() != n)
    throw std::invalid_argument("compute_weights: size mismatch");

  // Row-normalize: each relay's reports form a probability-like vector, so
  // a relay cannot raise its own influence by inflating all its reports.
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += obs.at(i, j);
    if (row_sum <= 0.0) continue;
    for (std::size_t j = 0; j < n; ++j)
      matrix[i * n + j] = obs.at(i, j) / row_sum;
  }

  // Initialize from the trusted indicator.
  std::size_t trusted_count = 0;
  for (const bool t : trusted)
    if (t) ++trusted_count;
  if (trusted_count == 0)
    throw std::invalid_argument("compute_weights: no trusted relays");
  std::vector<double> w(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (trusted[i]) w[i] = 1.0 / static_cast<double>(trusted_count);

  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    // next = w^T * M (weights flow along observation edges).
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (w[i] <= 0.0) continue;
      for (std::size_t j = 0; j < n; ++j)
        next[j] += w[i] * matrix[i * n + j];
    }
    const double total = std::accumulate(next.begin(), next.end(), 0.0);
    if (total <= 0.0) break;
    double delta = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      next[j] /= total;
      delta += std::abs(next[j] - w[j]);
    }
    w.swap(next);
    if (delta < params.tolerance) break;
  }
  return w;
}

double collusion_advantage(std::span<const double> capacities,
                           std::span<const std::size_t> colluders,
                           double inflation, double trusted_fraction,
                           const EigenSpeedParams& params,
                           std::uint64_t seed) {
  const std::size_t n = capacities.size();
  sim::Rng rng(seed);
  ObservationMatrix obs = honest_observations(capacities, 0.15, rng);
  apply_collusion(obs, colluders, inflation);

  // Trust the first `trusted_fraction` of honest relays (colluders are
  // never trusted).
  std::vector<bool> trusted(n, false);
  std::size_t want =
      std::max<std::size_t>(1, static_cast<std::size_t>(n * trusted_fraction));
  for (std::size_t i = 0; i < n && want > 0; ++i) {
    if (std::find(colluders.begin(), colluders.end(), i) != colluders.end())
      continue;
    trusted[i] = true;
    --want;
  }

  const auto weights = compute_weights(obs, trusted, params);
  double colluder_weight = 0.0;
  double colluder_capacity = 0.0;
  for (const std::size_t c : colluders) {
    colluder_weight += weights[c];
    colluder_capacity += capacities[c];
  }
  const double total_capacity =
      std::accumulate(capacities.begin(), capacities.end(), 0.0);
  const double fair_share = colluder_capacity / total_capacity;
  return colluder_weight / fair_share;
}

}  // namespace flashflow::eigenspeed
