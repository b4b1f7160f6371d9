// PeerFlow baseline (Johnson et al., PoPETs 2017; paper §8).
//
// Relays periodically report the total bytes they exchanged with each other
// relay; the directory authorities securely aggregate the reports into
// weights. Security rests on a trusted fraction tau of relay weight whose
// reports cannot be faked: a malicious relay's credited traffic is capped by
// what *trusted* relays observed with it, so its weight inflation is
// bounded by roughly 2/tau (it can claim both directions of the traffic it
// actually pushed through trusted peers). PeerFlow additionally caps how
// fast any relay's weight can grow between periods (factor ~4.5 with the
// suggested parameters); the single-period comparisons here never reach it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/random.h"

namespace flashflow::peerflow {

struct PeerFlowParams {
  /// Fraction of total weight held by trusted relays (tau).
  double trusted_weight_fraction = 0.2;
  /// Measurement period length in days (Table 2: 14+ days to cover the
  /// largest 96.8% of relays).
  double period_days = 14.0;
};

struct PeerFlowRelay {
  std::string fingerprint;
  double true_capacity_bits = 0;
  double utilization = 0.5;  // fraction of capacity carrying client traffic
  bool trusted = false;
  bool malicious = false;
};

/// Pairwise traffic tallies for one period; bytes[i*n+j] is the traffic
/// relay i reports having exchanged with relay j.
struct TrafficMatrix {
  std::size_t n = 0;
  std::vector<double> bytes;
  double at(std::size_t i, std::size_t j) const { return bytes[i * n + j]; }
};

/// Generates an honest period of traffic: relay pairs exchange traffic
/// proportional to the product of their utilized capacities.
TrafficMatrix honest_traffic(std::span<const PeerFlowRelay> relays,
                             double period_seconds, sim::Rng& rng);

/// The malicious strategy behind the 2/tau bound: each malicious relay
/// directs its entire real capacity at trusted peers for the whole period
/// (instead of the utilized fraction) and claims both directions.
void apply_inflation_strategy(TrafficMatrix& traffic,
                              std::span<const PeerFlowRelay> relays,
                              double period_seconds);

/// Computes per-relay weights: each relay is credited the traffic that
/// *trusted* relays report having exchanged with it, scaled by 1/tau
/// (trusted relays see approximately a tau fraction of everyone's traffic).
std::vector<double> compute_weights(const TrafficMatrix& traffic,
                                    std::span<const PeerFlowRelay> relays,
                                    const PeerFlowParams& params);

/// Normalized-weight advantage of the malicious coalition relative to its
/// fair (capacity) share. Approaches 2/tau.
double inflation_advantage(std::span<const PeerFlowRelay> relays,
                           const PeerFlowParams& params, std::uint64_t seed);

}  // namespace flashflow::peerflow
