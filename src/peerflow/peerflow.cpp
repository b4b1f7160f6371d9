#include "peerflow/peerflow.h"

#include <stdexcept>

#include "net/units.h"

namespace flashflow::peerflow {

TrafficMatrix honest_traffic(std::span<const PeerFlowRelay> relays,
                             double period_seconds, sim::Rng& rng) {
  const std::size_t n = relays.size();
  TrafficMatrix m;
  m.n = n;
  m.bytes.assign(n * n, 0.0);

  // Utilized forwarding rate of each relay.
  std::vector<double> used(n);
  double total_used = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    used[i] = relays[i].true_capacity_bits * relays[i].utilization;
    total_used += used[i];
  }
  if (total_used <= 0.0) return m;

  // Pair (i, j) carries traffic proportional to used_i * used_j / total —
  // the expected co-occurrence of both relays on circuits.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double rate = used[i] * used[j] / total_used;
      const double noise = rng.uniform(0.9, 1.1);
      m.bytes[i * n + j] =
          net::bytes_from_bits(rate) * period_seconds * noise;
    }
  }
  return m;
}

void apply_inflation_strategy(TrafficMatrix& traffic,
                              std::span<const PeerFlowRelay> relays,
                              double period_seconds) {
  const std::size_t n = relays.size();
  std::vector<std::size_t> trusted_idx;
  for (std::size_t i = 0; i < n; ++i)
    if (relays[i].trusted) trusted_idx.push_back(i);
  if (trusted_idx.empty()) return;

  for (std::size_t i = 0; i < n; ++i) {
    if (!relays[i].malicious) continue;
    // The malicious relay redirects its full capacity to trusted peers for
    // the entire period; each direction is observed, doubling the credit.
    const double bytes_total =
        net::bytes_from_bits(relays[i].true_capacity_bits) * period_seconds;
    const double per_trusted =
        bytes_total / static_cast<double>(trusted_idx.size());
    for (const std::size_t t : trusted_idx) {
      // Trusted relays truthfully observe this traffic in both directions.
      traffic.bytes[i * n + t] = per_trusted;
      traffic.bytes[t * n + i] = per_trusted;
    }
  }
}

std::vector<double> compute_weights(const TrafficMatrix& traffic,
                                    std::span<const PeerFlowRelay> relays,
                                    const PeerFlowParams& params) {
  const std::size_t n = relays.size();
  if (traffic.n != n)
    throw std::invalid_argument("compute_weights: size mismatch");
  std::vector<double> weights(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double credited = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j || !relays[i].trusted) continue;
      // Reports about j from trusted relays cannot be faked; both
      // directions are counted (send + receive).
      credited += traffic.at(i, j) + traffic.at(j, i);
    }
    weights[j] = credited / params.trusted_weight_fraction;
  }
  return weights;
}

double inflation_advantage(std::span<const PeerFlowRelay> relays,
                           const PeerFlowParams& params, std::uint64_t seed) {
  sim::Rng rng(seed);
  const double period_s = params.period_days * 24 * 3600;
  TrafficMatrix traffic = honest_traffic(relays, period_s, rng);
  apply_inflation_strategy(traffic, relays, period_s);
  const auto weights = compute_weights(traffic, relays, params);

  double mal_weight = 0.0, total_weight = 0.0;
  double mal_cap = 0.0, total_cap = 0.0;
  for (std::size_t i = 0; i < relays.size(); ++i) {
    total_weight += weights[i];
    total_cap += relays[i].true_capacity_bits;
    if (relays[i].malicious) {
      mal_weight += weights[i];
      mal_cap += relays[i].true_capacity_bits;
    }
  }
  if (mal_cap <= 0.0 || total_weight <= 0.0)
    throw std::invalid_argument("inflation_advantage: no malicious capacity");
  return (mal_weight / total_weight) / (mal_cap / total_cap);
}

}  // namespace flashflow::peerflow
