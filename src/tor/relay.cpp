#include "tor/relay.h"

#include <algorithm>
#include <cmath>

#include "net/units.h"

namespace flashflow::tor {

RelayNoise::RelayNoise(Params params, sim::Rng rng)
    : params_(params), rng_(std::move(rng)) {}

double RelayNoise::next_factor() {
  // Congestion episodes arrive as a Poisson process and persist for an
  // exponentially distributed number of seconds.
  if (episode_seconds_left_ <= 0.0 &&
      rng_.chance(params_.episode_rate_per_s)) {
    episode_seconds_left_ =
        rng_.exponential(params_.episode_mean_duration_s);
    episode_depth_ =
        rng_.uniform(params_.episode_depth_min, params_.episode_depth_max);
  }
  double factor = 1.0 + rng_.normal(0.0, params_.gauss_sigma);
  if (episode_seconds_left_ > 0.0) {
    factor *= episode_depth_;
    episode_seconds_left_ -= 1.0;
  }
  return std::clamp(factor, 0.0, params_.max_factor);
}

void RelayNoise::fill_factors(std::span<double> out) {
  // The episode draws are data-dependent (a chance() draw gates each
  // second's episode sampling), so the per-second draw interleaving is
  // preserved verbatim; the batching win is hoisting the whole series out
  // of callers' per-second loops.
  for (double& factor : out) factor = next_factor();
}

double RelayModel::measurement_capacity(int sockets) const {
  double cap = std::min(nic_up_bits, nic_down_bits);
  cap = std::min(cap, cpu.capacity(sockets));
  if (rate_limit_bits > 0.0) cap = std::min(cap, rate_limit_bits);
  return cap;
}

double RelayModel::normal_capacity(int sockets) const {
  return std::min(measurement_capacity(sockets),
                  sched.normal_aggregate_cap(sockets));
}

double RelayModel::ground_truth(int sockets) const {
  const double cap = measurement_capacity(sockets);
  if (rate_limit_bits > 0.0 && cap >= rate_limit_bits) {
    // Token-bucket quantization overhead: about 4.5% for small limits,
    // flattening to ~11 Mbit/s for large ones (matches the paper's measured
    // ground truths of 9.58/239/494/741 Mbit/s).
    const double shave = std::min(0.045 * rate_limit_bits, net::mbit(11));
    return rate_limit_bits - shave;
  }
  return cap;
}

}  // namespace flashflow::tor
