// Shadow-style private Tor network (paper §7).
//
// A 5%-scale network: ~328 relays sampled from a January-2019-like capacity
// distribution, placed in geographic regions with a city-level RTT matrix.
// The network carries the aggregate Markov client load plus 40 benchmark
// clients. shadow_topology() additionally exposes the network as a
// net::Topology (3 measurer hosts + one host per relay) so the real
// FlashFlow BWAuth machinery can measure it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"

namespace flashflow::shadowsim {

enum class Region : int { kNaEast = 0, kNaWest = 1, kEurope = 2, kAsia = 3 };
inline constexpr int kRegionCount = 4;

/// Inter-region RTT in seconds (symmetric; diagonal = intra-region).
double region_rtt(Region a, Region b);

struct ShadowRelay {
  std::string fingerprint;
  double capacity_bits = 0;   // ground-truth Tor capacity
  Region region = Region::kEurope;
  /// Self-reported advertised bandwidth (underestimates capacity, per §3).
  double advertised_bits = 0;
  /// Long-run utilization (fraction of capacity carrying client traffic).
  double utilization = 0.5;
  /// Shadow shared-internet contention factor: the fraction of capacity a
  /// measurement can actually drive through the simulated internet
  /// (models the Fig 8a capacity error the paper observes in Shadow).
  double contention = 1.0;
};

struct ShadowNetParams {
  int relays = 328;
  double capacity_mu = 17.5;       // log-normal; mean ~93 Mbit/s
  double capacity_sigma = 1.3;
  double max_capacity_bits = 1.0e9;
  double min_capacity_bits = 1.0e6;
  // Advertised = capacity * clamp(N(mean, sd), lo, hi): the §3
  // underestimation distribution.
  double advertised_mean = 0.62;
  double advertised_sd = 0.18;
  // Shadow contention factor distribution (Fig 8a: median error 16%).
  double contention_mean = 0.84;
  double contention_sd = 0.12;

  friend bool operator==(const ShadowNetParams&,
                         const ShadowNetParams&) = default;
};

struct ShadowNet {
  std::vector<ShadowRelay> relays;
  double total_capacity_bits = 0;
};

ShadowNet make_shadow_net(const ShadowNetParams& params, std::uint64_t seed);

/// Topology for FlashFlow measurement: hosts[0..2] are the three 1 Gbit/s
/// measurers (§7), named measurer-0..2; hosts[3..] are the relays in relay
/// order, unnamed.
net::Topology shadow_topology(const ShadowNet& net);

}  // namespace flashflow::shadowsim
