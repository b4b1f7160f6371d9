#include "core/schedule.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace flashflow::core {

PackingResult greedy_pack(std::span<const double> capacity_estimates,
                          double team_capacity_bits, const Params& params) {
  const double f = params.excess_factor();
  const std::size_t n = capacity_estimates.size();

  // Relays sorted by requirement, largest first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return capacity_estimates[a] > capacity_estimates[b];
  });
  // need[p] is the requirement at sorted position p: non-increasing in p,
  // so the positions that fit a given room form a suffix.
  std::vector<double> need(n);
  for (std::size_t p = 0; p < n; ++p)
    need[p] = f * capacity_estimates[order[p]];
  if (n > 0 && need[0] > team_capacity_bits + 1e-6)
    throw std::runtime_error("greedy_pack: relay exceeds team capacity");

  PackingResult result;
  result.relay_slot.assign(n, -1);
  // Largest-fit: each slot scans the sorted order once, taking every
  // unplaced relay that still fits. The next relay it takes is the first
  // unplaced position at or after both the last one taken and the first
  // position that fits the room left, found by binary search plus a
  // next-unplaced forest (path halving; position n is the end).
  std::vector<std::size_t> next(n + 1);
  std::iota(next.begin(), next.end(), 0);
  const auto first_unplaced = [&next](std::size_t p) {
    while (next[p] != p) {
      next[p] = next[next[p]];
      p = next[p];
    }
    return p;
  };
  std::size_t remaining = n;
  int slot = 0;
  while (remaining > 0) {
    double room = team_capacity_bits;
    for (std::size_t from = 0;;) {
      const double limit = room + 1e-6;
      const auto fits =
          std::partition_point(need.begin() + static_cast<std::ptrdiff_t>(from),
                               need.end(), [limit](double x) {
                                 return !(x <= limit);
                               });
      const std::size_t p =
          first_unplaced(static_cast<std::size_t>(fits - need.begin()));
      if (p == n) break;
      result.relay_slot[order[p]] = slot;
      result.total_requirement_bits += need[p];
      room -= need[p];
      next[p] = p + 1;
      --remaining;
      from = p + 1;
    }
    ++slot;
  }
  result.slots_used = slot;
  return result;
}

PeriodSchedule::PeriodSchedule(const Params& params,
                               double team_capacity_bits, std::uint64_t seed)
    : params_(params),
      team_capacity_bits_(team_capacity_bits),
      rng_(seed),
      load_bits_(static_cast<std::size_t>(
                     params.period / (params.slot_seconds * sim::kSecond)),
                 0.0) {
  if (team_capacity_bits_ <= 0.0)
    throw std::invalid_argument("PeriodSchedule: no team capacity");
}

int PeriodSchedule::slots_in_period() const {
  return static_cast<int>(load_bits_.size());
}

double PeriodSchedule::requirement(double capacity_estimate_bits) const {
  return params_.excess_factor() * capacity_estimate_bits;
}

std::vector<int> PeriodSchedule::schedule_old_relays(
    std::span<const double> capacity_estimates) {
  std::vector<int> slots;
  slots.reserve(capacity_estimates.size());
  std::vector<int> feasible;
  for (const double estimate : capacity_estimates) {
    const double need = requirement(estimate);
    feasible.clear();
    for (std::size_t s = 0; s < load_bits_.size(); ++s)
      if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6)
        feasible.push_back(static_cast<int>(s));
    if (feasible.empty())
      throw std::runtime_error(
          "PeriodSchedule: no slot can fit relay; period too short");
    const int pick = feasible[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(feasible.size()) - 1))];
    load_bits_[static_cast<std::size_t>(pick)] += need;
    slots.push_back(pick);
  }
  return slots;
}

int PeriodSchedule::schedule_new_relay(double capacity_estimate_bits) {
  const double need = requirement(capacity_estimate_bits);
  for (std::size_t s = 0; s < load_bits_.size(); ++s) {
    if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6) {
      load_bits_[s] += need;
      return static_cast<int>(s);
    }
  }
  throw std::runtime_error("PeriodSchedule: period full");
}

double PeriodSchedule::slot_load_bits(int slot) const {
  return load_bits_.at(static_cast<std::size_t>(slot));
}

}  // namespace flashflow::core
