// EigenSpeed baseline (Snader & Borisov, IPTPS 2009; paper §8).
//
// Every relay records the average per-stream throughput it observes with
// every other relay and reports the vector to the directory authorities,
// who assemble the matrix and compute its principal eigenvector as the
// relay weights. The computation is initialized from a set of trusted
// relays; relays whose weights change atypically or end up inconsistent
// with their reported observations can be marked as liars and removed.
//
// Known attacks (PeerFlow paper, §8 here): Sybils get default 1/n weight;
// a colluding clique reporting inflated mutual observations can obtain up
// to ~21.5x its fair weight; an increase-framing attack can evict honest
// relays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/random.h"

namespace flashflow::eigenspeed {

/// Dense square observation matrix; row i holds relay i's reported
/// observations of each peer.
class ObservationMatrix {
 public:
  explicit ObservationMatrix(std::size_t n);

  std::size_t size() const { return n_; }
  double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);

 private:
  std::size_t n_;
  std::vector<double> data_;
};

struct EigenSpeedParams {
  int max_iterations = 100;
  double tolerance = 1e-12;
};

/// Builds the honest observation matrix: relay pairs observe roughly
/// min(cap_i, cap_j) scaled by per-pair stream contention noise.
ObservationMatrix honest_observations(std::span<const double> capacities,
                                      double noise_sigma, sim::Rng& rng);

/// Colluding relays report `inflation` times their capacity for each other.
void apply_collusion(ObservationMatrix& obs,
                     std::span<const std::size_t> colluders, double inflation);

/// Principal-eigenvector weights via power iteration, initialized from the
/// trusted indicator vector (uniform over trusted relays). Rows are
/// normalized first so no relay controls the scale of its own column.
std::vector<double> compute_weights(const ObservationMatrix& obs,
                                    const std::vector<bool>& trusted,
                                    const EigenSpeedParams& params);

/// Attack advantage: total normalized weight of the colluders divided by
/// their normalized true capacity.
double collusion_advantage(std::span<const double> capacities,
                           std::span<const std::size_t> colluders,
                           double inflation, double trusted_fraction,
                           const EigenSpeedParams& params, std::uint64_t seed);

}  // namespace flashflow::eigenspeed
