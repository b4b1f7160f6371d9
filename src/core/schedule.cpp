#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

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

namespace {

/// Throws std::invalid_argument naming `what` and its non-finite `value`.
[[noreturn]] void reject_non_finite(const std::string& what, double value) {
  std::string message = "PeriodSchedule: ";
  message += what;
  message += " is not finite: ";
  message += std::to_string(value);
  throw std::invalid_argument(message);
}

}  // namespace

PeriodSchedule::PeriodSchedule(const Params& params,
                               double team_capacity_bits, std::uint64_t seed)
    : params_(params),
      team_capacity_bits_(team_capacity_bits),
      rng_(seed),
      load_bits_(static_cast<std::size_t>(
                     params.period / (params.slot_seconds * sim::kSecond)),
                 0.0),
      sorted_load_bits_(load_bits_) {
  // NaN fails every comparison, so test for finiteness before the sign.
  if (!std::isfinite(team_capacity_bits_))
    reject_non_finite("team capacity", team_capacity_bits_);
  if (team_capacity_bits_ <= 0.0)
    throw std::invalid_argument("PeriodSchedule: no team capacity");
}

int PeriodSchedule::slots_in_period() const {
  return static_cast<int>(load_bits_.size());
}

double PeriodSchedule::requirement(double capacity_estimate_bits) const {
  return params_.excess_factor() * capacity_estimate_bits;
}

bool PeriodSchedule::fits(double load, double need) const {
  return load + need <= team_capacity_bits_ + 1e-6;
}

std::size_t PeriodSchedule::block_fit_count(std::size_t begin,
                                            double need) const {
  // fits() is monotone in the load (IEEE addition rounds monotonically),
  // so the slots that fit are a prefix of the block's sorted loads.
  const double* first = sorted_load_bits_.data() + begin;
  const double* last =
      first + std::min(kBlockSlots, sorted_load_bits_.size() - begin);
  if (!fits(first[0], need)) return 0;
  if (fits(last[-1], need)) return static_cast<std::size_t>(last - first);
  const double* end = std::partition_point(
      first + 1, last - 1, [&](double load) { return fits(load, need); });
  return static_cast<std::size_t>(end - first);
}

void PeriodSchedule::place(std::size_t slot, double need) {
  const double old_load = load_bits_[slot];
  const double new_load = old_load + need;
  load_bits_[slot] = new_load;
  const std::size_t begin = slot - slot % kBlockSlots;
  double* first = sorted_load_bits_.data() + begin;
  double* last =
      first + std::min(kBlockSlots, sorted_load_bits_.size() - begin);
  // Overwrite the last entry holding the old load, then move it to its
  // sorted place.
  double* at = std::upper_bound(first, last, old_load) - 1;
  *at = new_load;
  for (; at + 1 != last && at[1] < at[0]; ++at) std::swap(at[0], at[1]);
  for (; at != first && at[0] < at[-1]; --at) std::swap(at[-1], at[0]);
}

std::vector<int> PeriodSchedule::schedule_old_relays(
    std::span<const double> capacity_estimates) {
  for (std::size_t i = 0; i < capacity_estimates.size(); ++i) {
    if (std::isfinite(capacity_estimates[i])) continue;
    std::string what = "capacity estimate of relay ";
    what += std::to_string(i);
    reject_non_finite(what, capacity_estimates[i]);
  }
  std::vector<int> slots;
  slots.reserve(capacity_estimates.size());
  std::vector<std::size_t> block_fits(
      (load_bits_.size() + kBlockSlots - 1) / kBlockSlots);
  for (const double estimate : capacity_estimates) {
    const double need = requirement(estimate);
    std::size_t feasible = 0;
    for (std::size_t b = 0; b < block_fits.size(); ++b) {
      block_fits[b] = block_fit_count(b * kBlockSlots, need);
      feasible += block_fits[b];
    }
    if (feasible == 0)
      throw std::runtime_error(
          "PeriodSchedule: no slot can fit relay; period too short");
    // The pick-th fitting slot in index order, numbered as a scan of
    // every slot would number them.
    auto pick = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(feasible) - 1));
    std::size_t b = 0;
    while (pick >= block_fits[b]) pick -= block_fits[b++];
    std::size_t slot = b * kBlockSlots;
    for (;; ++slot)
      if (fits(load_bits_[slot], need) && pick-- == 0) break;
    place(slot, need);
    slots.push_back(static_cast<int>(slot));
  }
  return slots;
}

int PeriodSchedule::schedule_new_relay(double capacity_estimate_bits) {
  if (!std::isfinite(capacity_estimate_bits))
    reject_non_finite("capacity estimate", capacity_estimate_bits);
  const double need = requirement(capacity_estimate_bits);
  // The earliest fitting slot lies in the first block whose smallest load
  // fits.
  for (std::size_t begin = 0; begin < load_bits_.size();
       begin += kBlockSlots) {
    if (!fits(sorted_load_bits_[begin], need)) continue;
    std::size_t slot = begin;
    while (!fits(load_bits_[slot], need)) ++slot;
    place(slot, need);
    return static_cast<int>(slot);
  }
  throw std::runtime_error("PeriodSchedule: period full");
}

double PeriodSchedule::slot_load_bits(int slot) const {
  return load_bits_.at(static_cast<std::size_t>(slot));
}

}  // namespace flashflow::core
