#include "core/bwauth.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/allocation.h"
#include "core/estimator.h"

namespace flashflow::core {

BWAuth::BWAuth(const net::Topology& topo, Params params, Team team,
               double new_relay_prior_bits, std::uint64_t seed)
    : topo_(topo),
      params_(params),
      team_(std::move(team)),
      new_relay_prior_bits_(new_relay_prior_bits),
      rng_(seed) {}

BWAuth::MeasureResult BWAuth::measure_relay(const RelayTarget& target,
                                            int max_rounds) {
  MeasureResult result;
  const std::vector<double> caps = team_.capacities();
  const std::vector<int> cores = team_.cores();
  const double team_total =
      std::accumulate(caps.begin(), caps.end(), 0.0);
  if (team_total <= 0.0)
    throw std::runtime_error(
        "BWAuth::measure_relay: team has no measured capacity; run "
        "Team::measure_measurers first");

  double guess = target.previous_estimate_bits > 0.0
                     ? target.previous_estimate_bits
                     : new_relay_prior_bits_;

  double z = 0.0;  // the last round's estimate
  for (int round = 0; round < max_rounds; ++round) {
    ++result.rounds;
    double required = params_.excess_factor() * guess;
    const bool saturated = required >= team_total;
    if (saturated) required = team_total;

    const auto allocations = allocate_greedy(caps, required);
    const auto shares = make_shares(allocations, cores, params_);

    std::vector<MeasurerSlot> slots;
    for (const auto& s : shares) {
      if (s.allocated_bits <= 0.0) continue;
      MeasurerSlot m;
      m.host = team_.measurers()[s.measurer_index].host;
      m.allocated_bits = s.allocated_bits;
      m.sockets = s.sockets;
      slots.push_back(m);
    }

    SlotRunner runner(topo_, params_, rng_.fork("slot"));
    const SlotOutcome outcome =
        runner.run(target.model, target.host, slots, target.behavior);
    if (outcome.verification_failed) {
      result.verification_failed = true;
      return result;
    }
    z = outcome.estimate_bits;

    const auto acceptance = evaluate_estimate(z, allocations, params_);
    if (acceptance.accepted || saturated) {
      result.estimate_bits = z;
      result.accepted = acceptance.accepted;
      return result;
    }
    guess = next_guess(z, guess);
  }
  // Rounds exhausted: report the last estimate unaccepted.
  result.estimate_bits = z;
  return result;
}

tor::BandwidthFile BWAuth::measure_network(
    std::span<const RelayTarget> targets, int max_rounds) {
  tor::BandwidthFile file;
  file.reserve(targets.size());
  for (const auto& target : targets) {
    const MeasureResult r = measure_relay(target, max_rounds);
    tor::BandwidthFileEntry entry;
    entry.fingerprint = target.model.name;
    entry.capacity_bits = r.verification_failed ? 0.0 : r.estimate_bits;
    entry.weight = entry.capacity_bits;
    file.push_back(std::move(entry));
  }
  return file;
}

}  // namespace flashflow::core
