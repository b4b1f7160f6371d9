// Measurement scheduling (§4.3, §7).
//
// A measurement period (24 h) divides into 30-second slots. Each BWAuth
// derives a secret randomized schedule from a shared seed: old relays are
// placed in uniformly random slots with sufficient unallocated capacity
// (each relay consumes f * z0 of the team's capacity); new relays are
// appended first-come first-served into the earliest slot with room.
//
// PeriodSchedule finds those slots through an index instead of scanning
// the period: the slots form blocks of 64 by index, and each block keeps
// a sorted copy of its loads. A relay costs O(B + 64) for B blocks (45 in
// a day): a fit count per block (O(1) when the block's smallest load
// does not fit or its largest does, else a binary search), a scan of the
// one block that holds the chosen slot, and re-sorting that block's
// loads. Placements, loads and RNG draws are bit-identical to scanning
// every slot (docs/determinism.md says why).
//
// greedy_pack() implements the §7 efficiency estimate: fill slots in order,
// always taking the largest still-unmeasured relay that fits, yielding the
// minimum measurement time for the whole network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "sim/random.h"

namespace flashflow::core {

struct PackingResult {
  int slots_used = 0;
  /// relay index -> slot index (aligned with the input capacities).
  std::vector<int> relay_slot;
  /// Sum of capacity-estimate requirements (f * cap), bits.
  double total_requirement_bits = 0;
};

/// §7 greedy largest-fit packing. Throws if any single relay needs more
/// than the team capacity.
PackingResult greedy_pack(std::span<const double> capacity_estimates,
                          double team_capacity_bits, const Params& params);

/// Randomized secret schedule for one BWAuth over one period.
class PeriodSchedule {
 public:
  /// `seed` is the period's shared random seed (per §4.3, derived from
  /// Tor's secure-randomness protocol) combined with the BWAuth identity.
  /// Throws std::invalid_argument unless the team capacity is finite and
  /// positive.
  PeriodSchedule(const Params& params, double team_capacity_bits,
                 std::uint64_t seed);

  int slots_in_period() const;

  /// Assigns every old relay a uniformly random feasible slot; returns the
  /// slot per relay. Throws std::invalid_argument, placing no relay, if an
  /// estimate is not finite, and std::runtime_error if a relay cannot fit
  /// in any slot (the relays before it stay placed).
  std::vector<int> schedule_old_relays(
      std::span<const double> capacity_estimates);

  /// FCFS new-relay insertion: earliest slot with room. Returns the slot.
  /// Throws std::invalid_argument if the estimate is not finite, and
  /// std::runtime_error if no slot has room.
  int schedule_new_relay(double capacity_estimate_bits);

  double slot_load_bits(int slot) const;

 private:
  /// Slots per block of the load index.
  static constexpr std::size_t kBlockSlots = 64;

  double requirement(double capacity_estimate_bits) const;
  /// Whether a slot holding `load` has room for `need`.
  bool fits(double load, double need) const;
  /// Slots of the block starting at slot `begin` that have room for `need`.
  std::size_t block_fit_count(std::size_t begin, double need) const;
  /// Adds `need` to `slot` and keeps its block's loads sorted.
  void place(std::size_t slot, double need);

  Params params_;
  double team_capacity_bits_;
  sim::Rng rng_;
  std::vector<double> load_bits_;
  /// load_bits_ with each block's loads sorted ascending.
  std::vector<double> sorted_load_bits_;
};

}  // namespace flashflow::core
