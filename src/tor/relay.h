// Fluid model of a Tor relay as a measurement target.
//
// A relay's instantaneous forwarding capacity composes:
//   - NIC up/down limits of its host,
//   - the single-threaded CPU limit with per-socket overhead (cpu_model.h),
//   - any operator token-bucket limit (RelayBandwidthRate/Burst), including
//     Tor's one-second refill burst at measurement start (Fig 7's spike),
//   - the scheduler in use (KIST cap for normal traffic; uncapped for
//     measurement circuits),
//   - a stochastic per-second noise process standing in for cross traffic
//     and shared-host contention (drives the accuracy spread in Fig 6).
//
// During a FlashFlow measurement the relay enforces the ratio r between
// normal (background) traffic and total traffic (§4.1): it forwards as much
// background as possible subject to y <= r * (x + y). r is the BWAuth's
// parameter (core::Params::ratio), the same for every relay; the slot
// runner applies the split each simulated second (core/measurement.cpp).
#pragma once

#include <limits>
#include <span>
#include <string>

#include "sim/random.h"
#include "tor/cpu_model.h"
#include "tor/scheduler.h"

namespace flashflow::tor {

/// Per-second multiplicative throughput noise: a small Gaussian wobble plus
/// occasional multi-second congestion episodes (bursty cross traffic).
class RelayNoise {
 public:
  struct Params {
    double gauss_sigma = 0.012;        // per-second wobble
    double episode_rate_per_s = 0.010; // Poisson arrival of congestion dips
    double episode_mean_duration_s = 8.0;
    double episode_depth_min = 0.86;   // episode multiplies capacity by
    double episode_depth_max = 0.98;   //   U(min, max)
    double max_factor = 1.04;          // relays can run slightly "hot"
  };

  RelayNoise(Params params, sim::Rng rng);
  /// Noise factor for the next second (advances the process).
  double next_factor();
  /// Factors for the next out.size() seconds — the identical sequence
  /// next_factor() would return call by call (same draws, same order),
  /// batched so a slot's whole noise series is generated in one pass at
  /// slot setup instead of one transcendental-bearing call per simulated
  /// second inside the hot loop.
  void fill_factors(std::span<double> out);

 private:
  Params params_;
  sim::Rng rng_;
  double episode_seconds_left_ = 0.0;
  double episode_depth_ = 1.0;
};

/// Token-bucket depth in seconds-at-rate: the first second of a
/// measurement can spend the accumulated bucket on top of the refill (the
/// spike at measurement start in Fig 7).
inline constexpr double kBurstSeconds = 0.25;

struct RelayModel {
  std::string name = "relay";
  double nic_up_bits = std::numeric_limits<double>::infinity();
  double nic_down_bits = std::numeric_limits<double>::infinity();
  /// Operator rate limit on Tor throughput; <= 0 means unlimited.
  double rate_limit_bits = 0.0;
  CpuModel cpu;
  SchedulerModel sched;
  /// Offered background (client) traffic demand, bits/s.
  double background_demand_bits = 0.0;

  /// Deterministic forwarding capacity with the measurement scheduler and
  /// `sockets` busy sockets, before noise and token-bucket burst:
  /// min(NICs, CPU(n), rate limit). This is the quantity the paper calls
  /// "Tor ground truth" when probed by saturating clients.
  double measurement_capacity(int sockets) const;

  /// Deterministic capacity under the normal KIST scheduler (Fig 11 "Sockets"
  /// curve): additionally capped by the per-socket KIST limit.
  double normal_capacity(int sockets) const;

  /// Tor ground truth of a rate-limited relay: the token bucket's refill
  /// quantization and cell framing shave a little off the configured limit
  /// (§E.2 measured 9.58/239/494/741 against limits of 10/250/500/750).
  double ground_truth(int sockets) const;
};

}  // namespace flashflow::tor
