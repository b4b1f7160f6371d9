#include "core/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/units.h"

namespace flashflow::core {
namespace {

TEST(GreedyPack, SingleRelayOneSlot) {
  Params p;
  const std::vector<double> caps = {net::mbit(100)};
  const auto r = greedy_pack(caps, net::gbit(3), p);
  EXPECT_EQ(r.slots_used, 1);
  EXPECT_EQ(r.relay_slot[0], 0);
}

TEST(GreedyPack, PacksLargestFirst) {
  Params p;
  // Team 3 Gbit/s; f ~ 2.953: a 998 Mbit/s relay consumes ~2.95 G alone,
  // leaving ~53 Mbit/s of slack for small relays.
  const std::vector<double> caps = {net::mbit(998), net::mbit(5),
                                    net::mbit(5)};
  const auto r = greedy_pack(caps, net::gbit(3), p);
  EXPECT_EQ(r.slots_used, 1);  // small relays fit in the leftover
}

TEST(GreedyPack, SlotCountTracksTotalRequirement) {
  Params p;
  std::vector<double> caps(100, net::mbit(100));
  const double team = net::gbit(3);
  const auto r = greedy_pack(caps, team, p);
  const int lower_bound = static_cast<int>(
      std::ceil(r.total_requirement_bits / team));
  EXPECT_GE(r.slots_used, lower_bound);
  EXPECT_LE(r.slots_used, lower_bound + 2);  // near-perfect packing
}

TEST(GreedyPack, EveryRelayAssignedExactlyOnce) {
  Params p;
  std::vector<double> caps;
  sim::Rng rng(3);
  for (int i = 0; i < 200; ++i) caps.push_back(rng.uniform(1e6, 9e8));
  const auto r = greedy_pack(caps, net::gbit(3), p);
  for (const int slot : r.relay_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, r.slots_used);
  }
}

TEST(GreedyPack, SlotCapacityNeverExceeded) {
  Params p;
  std::vector<double> caps;
  sim::Rng rng(4);
  for (int i = 0; i < 300; ++i) caps.push_back(rng.uniform(1e6, 9e8));
  const double team = net::gbit(3);
  const auto r = greedy_pack(caps, team, p);
  std::vector<double> load(static_cast<std::size_t>(r.slots_used), 0.0);
  for (std::size_t i = 0; i < caps.size(); ++i)
    load[static_cast<std::size_t>(r.relay_slot[i])] +=
        p.excess_factor() * caps[i];
  for (const double l : load) EXPECT_LE(l, team + 1.0);
}

TEST(GreedyPack, OversizedRelayThrows) {
  Params p;
  const std::vector<double> caps = {net::gbit(2)};  // f*2G > 3G
  EXPECT_THROW(greedy_pack(caps, net::gbit(3), p), std::runtime_error);
}

TEST(PeriodSchedule, SlotsPerDay) {
  Params p;  // 24 h period, 30 s slots
  PeriodSchedule sched(p, net::gbit(3), 1);
  EXPECT_EQ(sched.slots_in_period(), 2880);
}

TEST(PeriodSchedule, OldRelaysGetFeasibleSlots) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 2);
  std::vector<double> caps(500, net::mbit(100));
  const auto slots = sched.schedule_old_relays(caps);
  ASSERT_EQ(slots.size(), caps.size());
  for (const int s : slots) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, sched.slots_in_period());
    EXPECT_LE(sched.slot_load_bits(s), net::gbit(3) + 1.0);
  }
}

TEST(PeriodSchedule, DeterministicForSeed) {
  Params p;
  std::vector<double> caps(50, net::mbit(100));
  PeriodSchedule a(p, net::gbit(3), 42);
  PeriodSchedule b(p, net::gbit(3), 42);
  EXPECT_EQ(a.schedule_old_relays(caps), b.schedule_old_relays(caps));
}

TEST(PeriodSchedule, DifferentSeedsDifferentSchedules) {
  // §4.3: the schedule must be unpredictable without the seed.
  Params p;
  std::vector<double> caps(50, net::mbit(100));
  PeriodSchedule a(p, net::gbit(3), 1);
  PeriodSchedule b(p, net::gbit(3), 2);
  EXPECT_NE(a.schedule_old_relays(caps), b.schedule_old_relays(caps));
}

TEST(PeriodSchedule, SlotsSpreadAcrossPeriod) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 3);
  std::vector<double> caps(200, net::mbit(50));
  const auto slots = sched.schedule_old_relays(caps);
  std::set<int> distinct(slots.begin(), slots.end());
  // Uniform choice over 2880 slots: 200 relays should land on many
  // distinct slots.
  EXPECT_GT(distinct.size(), 150u);
}

TEST(PeriodSchedule, NewRelaysFcfsEarliestFit) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 4);
  const int s1 = sched.schedule_new_relay(net::mbit(51));
  const int s2 = sched.schedule_new_relay(net::mbit(51));
  EXPECT_EQ(s1, 0);
  EXPECT_EQ(s2, 0);  // both fit in the first slot
  // Fill slot 0 with a huge relay: next new relay goes to slot 1.
  PeriodSchedule tight(p, net::mbit(200), 5);
  tight.schedule_new_relay(net::mbit(60));  // ~177 of 200 Mbit used
  const int s3 = tight.schedule_new_relay(net::mbit(60));
  EXPECT_EQ(s3, 1);
}

TEST(PeriodSchedule, RejectsZeroCapacityTeam) {
  Params p;
  EXPECT_THROW(PeriodSchedule(p, 0.0, 1), std::invalid_argument);
}

/// The std::invalid_argument message `fn` throws, or "" if it throws none.
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PeriodSchedule, RejectsNonFiniteInputs) {
  Params p;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN passes a `<= 0` check, and an infinite team has room for anything.
  for (const double team : {nan, inf, -inf}) {
    const std::string message = invalid_argument_message(
        [&] { PeriodSchedule(p, team, 1); });
    EXPECT_NE(message.find("team capacity is not finite: " +
                           std::to_string(team)),
              std::string::npos)
        << message;
  }

  // A non-finite estimate is a bad input, not a full period: it throws
  // std::invalid_argument naming the value and places nothing.
  PeriodSchedule sched(p, net::gbit(3), 2);
  const int first = sched.schedule_new_relay(net::mbit(100));
  for (const double estimate : {nan, inf, -inf}) {
    const std::vector<double> caps = {net::mbit(10), estimate};
    std::string message = invalid_argument_message(
        [&] { sched.schedule_old_relays(caps); });
    EXPECT_NE(message.find("capacity estimate of relay 1 is not finite: " +
                           std::to_string(estimate)),
              std::string::npos)
        << message;
    message = invalid_argument_message(
        [&] { sched.schedule_new_relay(estimate); });
    EXPECT_NE(message.find("capacity estimate is not finite: " +
                           std::to_string(estimate)),
              std::string::npos)
        << message;
  }
  for (int s = 0; s < sched.slots_in_period(); ++s)
    EXPECT_EQ(sched.slot_load_bits(s),
              s == first ? p.excess_factor() * net::mbit(100) : 0.0);
}

TEST(GreedyPackProperty, RandomPopulationsPlaceEveryRelayWithinCapacity) {
  // Property sweep over random team sizes and heavy-ish populations:
  // every relay lands in exactly one valid slot, no slot's requirement sum
  // exceeds the team capacity, and the reported totals are consistent.
  Params p;
  sim::Rng rng(606);
  for (int trial = 0; trial < 40; ++trial) {
    const double team = rng.uniform(net::gbit(1), net::gbit(5));
    const double max_cap = team / p.excess_factor();
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 150));
    std::vector<double> caps;
    caps.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      caps.push_back(rng.uniform(net::mbit(0.1), max_cap));

    const auto r = greedy_pack(caps, team, p);
    ASSERT_EQ(r.relay_slot.size(), n);
    ASSERT_GE(r.slots_used, 1);
    std::vector<double> load(static_cast<std::size_t>(r.slots_used), 0.0);
    double requirement = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(r.relay_slot[i], 0);          // placed...
      ASSERT_LT(r.relay_slot[i], r.slots_used);  // ...in a real slot
      load[static_cast<std::size_t>(r.relay_slot[i])] +=
          p.excess_factor() * caps[i];
      requirement += p.excess_factor() * caps[i];
    }
    for (const double l : load) EXPECT_LE(l, team + 1.0);
    EXPECT_NEAR(r.total_requirement_bits, requirement,
                1e-6 * requirement + 1.0);
    // No trailing empty slot: the last slot must hold someone.
    EXPECT_GT(load.back(), 0.0);
  }
}

TEST(GreedyPackProperty, ThrowsWheneverAnyRelayExceedsTeam) {
  Params p;
  sim::Rng rng(607);
  for (int trial = 0; trial < 40; ++trial) {
    const double team = rng.uniform(net::gbit(1), net::gbit(5));
    std::vector<double> caps;
    for (int i = 0; i < 10; ++i)
      caps.push_back(rng.uniform(net::mbit(1), team / p.excess_factor()));
    // One relay strictly over the single-slot budget poisons the packing.
    caps.push_back(team / p.excess_factor() * rng.uniform(1.01, 3.0));
    for (std::size_t n = caps.size(); n > 1; --n) {  // Fisher-Yates
      const auto j = rng.uniform_int(0, static_cast<std::int64_t>(n) - 1);
      std::swap(caps[n - 1], caps[static_cast<std::size_t>(j)]);
    }
    EXPECT_THROW(greedy_pack(caps, team, p), std::runtime_error);
  }
}

/// The O(n * slots) greedy_pack loop the binary-search layout replaced,
/// kept verbatim as the reference it must match byte for byte.
PackingResult reference_greedy_pack(std::span<const double> capacity_estimates,
                                    double team_capacity_bits,
                                    const Params& params) {
  const double f = params.excess_factor();
  const std::size_t n = capacity_estimates.size();

  // Relays sorted by requirement, largest first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return capacity_estimates[a] > capacity_estimates[b];
  });

  PackingResult result;
  result.relay_slot.assign(n, -1);
  std::vector<bool> placed(n, false);
  std::size_t remaining = n;
  int slot = 0;
  while (remaining > 0) {
    double room = team_capacity_bits;
    // Largest-fit: scan in descending order for relays that still fit.
    for (const std::size_t r : order) {
      if (placed[r]) continue;
      const double need = f * capacity_estimates[r];
      if (need > team_capacity_bits + 1e-6)
        throw std::runtime_error(
            "greedy_pack: relay exceeds team capacity");
      if (need <= room + 1e-6) {
        result.relay_slot[r] = slot;
        result.total_requirement_bits += need;
        room -= need;
        placed[r] = true;
        --remaining;
      }
    }
    ++slot;
  }
  result.slots_used = slot;
  return result;
}

TEST(GreedyPackProperty, MatchesTheScanningReference) {
  // Random populations, half of them drawn from a handful of capacities so
  // that ties (and equal requirements at a slot's edge) are common; some
  // relays at zero, teams from barely-fits to roomy. Slots, placements and
  // the requirement sum (same accumulation order) must match exactly, and
  // an oversized relay must throw on both sides.
  Params p;
  sim::Rng rng(0x9ac4);
  const std::vector<double> tied = {net::mbit(0.5), net::mbit(2),
                                    net::mbit(17), net::mbit(100),
                                    net::mbit(333)};
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 600));
    const bool ties = rng.chance(0.5);
    std::vector<double> caps(n);
    for (double& c : caps) {
      if (rng.chance(0.03)) {
        c = 0.0;
      } else if (ties) {
        c = tied[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(tied.size()) - 1))];
      } else {
        c = rng.log_normal(16.5, 1.5);
      }
    }
    const double biggest =
        n > 0 ? *std::max_element(caps.begin(), caps.end()) : 0.0;
    const double team = rng.chance(0.05)
                            ? biggest * p.excess_factor() * 0.9
                            : std::max(net::gbit(0.3),
                                       biggest * p.excess_factor() *
                                           rng.uniform(1.0, 4.0));
    PackingResult want;
    bool want_throw = false;
    try {
      want = reference_greedy_pack(caps, team, p);
    } catch (const std::runtime_error&) {
      want_throw = true;
    }
    if (want_throw) {
      EXPECT_THROW(greedy_pack(caps, team, p), std::runtime_error)
          << "trial " << trial;
      continue;
    }
    const PackingResult got = greedy_pack(caps, team, p);
    EXPECT_EQ(got.slots_used, want.slots_used) << "trial " << trial;
    EXPECT_EQ(got.relay_slot, want.relay_slot) << "trial " << trial;
    EXPECT_EQ(std::memcmp(&got.total_requirement_bits,
                          &want.total_requirement_bits, sizeof(double)),
              0)
        << "trial " << trial;
  }
}

TEST(GreedyPackProperty, RequirementEqualToTheRoomLeftFits) {
  // A relay fits when its requirement is <= room + 1e-6, equality
  // included. Build a second relay whose requirement equals that bound
  // exactly after the first relay is placed.
  Params p;
  const double f = p.excess_factor();
  const double team = net::gbit(3);
  const double first = net::mbit(700);
  const double limit = (team - f * first) + 1e-6;
  double second = limit / f;
  for (int k = 0; k < 64 && f * second != limit; ++k)
    second = std::nextafter(second, f * second < limit ? 1e18 : 0.0);
  ASSERT_EQ(f * second, limit);
  ASSERT_LT(second, first);
  const std::vector<double> caps = {second, first};
  const PackingResult want = reference_greedy_pack(caps, team, p);
  ASSERT_EQ(want.slots_used, 1);
  const PackingResult got = greedy_pack(caps, team, p);
  EXPECT_EQ(got.slots_used, 1);
  EXPECT_EQ(got.relay_slot, want.relay_slot);
}


/// The PeriodSchedule that scanned every slot for each relay, before the
/// slot-load index replaced the scan. schedule_old_relays and
/// schedule_new_relay are kept verbatim as the reference the index must
/// match bit for bit.
class ReferencePeriodSchedule {
 public:
  ReferencePeriodSchedule(const Params& params, double team_capacity_bits,
                          std::uint64_t seed)
      : params_(params),
        team_capacity_bits_(team_capacity_bits),
        rng_(seed),
        load_bits_(static_cast<std::size_t>(
                       params.period / (params.slot_seconds * sim::kSecond)),
                   0.0) {}

  std::vector<int> schedule_old_relays(
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

  int schedule_new_relay(double capacity_estimate_bits) {
    const double need = requirement(capacity_estimate_bits);
    for (std::size_t s = 0; s < load_bits_.size(); ++s) {
      if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6) {
        load_bits_[s] += need;
        return static_cast<int>(s);
      }
    }
    throw std::runtime_error("PeriodSchedule: period full");
  }

  const std::vector<double>& loads() const { return load_bits_; }

 private:
  double requirement(double capacity_estimate_bits) const {
    return params_.excess_factor() * capacity_estimate_bits;
  }

  Params params_;
  double team_capacity_bits_;
  sim::Rng rng_;
  std::vector<double> load_bits_;
};

/// A schedule under test and its reference, driven in lockstep.
struct LockstepSchedules {
  PeriodSchedule got;
  ReferencePeriodSchedule want;

  LockstepSchedules(const Params& params, double team, std::uint64_t seed)
      : got(params, team, seed), want(params, team, seed) {}

  /// Every slot's load must match bit for bit.
  void expect_same_loads() const {
    ASSERT_EQ(static_cast<std::size_t>(got.slots_in_period()),
              want.loads().size());
    std::vector<double> loads(want.loads().size());
    for (std::size_t s = 0; s < loads.size(); ++s)
      loads[s] = got.slot_load_bits(static_cast<int>(s));
    EXPECT_EQ(std::memcmp(loads.data(), want.loads().data(),
                          loads.size() * sizeof(double)),
              0);
  }

  /// Runs schedule_old_relays on both; the slots (or the throw) and then
  /// the loads must agree. Returns whether they threw.
  bool old_relays(std::span<const double> estimates) {
    std::vector<int> want_slots, got_slots;
    bool want_threw = false, got_threw = false;
    try {
      want_slots = want.schedule_old_relays(estimates);
    } catch (const std::runtime_error&) {
      want_threw = true;
    }
    try {
      got_slots = got.schedule_old_relays(estimates);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    EXPECT_EQ(got_threw, want_threw);
    EXPECT_EQ(got_slots, want_slots);
    expect_same_loads();
    return want_threw;
  }

  /// The same for schedule_new_relay.
  bool new_relay(double estimate) {
    int want_slot = -1, got_slot = -1;
    bool want_threw = false, got_threw = false;
    try {
      want_slot = want.schedule_new_relay(estimate);
    } catch (const std::runtime_error&) {
      want_threw = true;
    }
    try {
      got_slot = got.schedule_new_relay(estimate);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    EXPECT_EQ(got_threw, want_threw);
    EXPECT_EQ(got_slot, want_slot);
    expect_same_loads();
    return want_threw;
  }

  /// A zero estimate fits every slot, so both draw over the whole period:
  /// the same slot shows the RNGs are in the same position.
  void expect_same_next_placement() {
    const double zero = 0.0;
    old_relays(std::span<const double>(&zero, 1));
  }
};

/// An estimate x with f * x landing exactly on the fit bound of a slot
/// holding `load`: load + f * x == team + 1e-6. Returns 0 if no double
/// lands there.
double estimate_on_the_bound(double load, double team, double f) {
  const double bound = team + 1e-6;
  double x = (bound - load) / f;
  for (int k = 0; k < 64 && load + f * x != bound; ++k)
    x = std::nextafter(x, load + f * x < bound ? 1e18 : 0.0);
  return load + f * x == bound ? x : 0.0;
}

TEST(PeriodScheduleProperty, MatchesTheScanningReference) {
  // Seeded cases against the scanning reference: §7 lognormal mixtures,
  // a handful of tied capacities, zero estimates, and priors clamped at
  // the team maximum as the period feedback clamps them. Slot counts
  // below the block size, not a multiple of it, and a multiple of it:
  // one day of 2,880 slots per family, then 60 shorter periods. Each
  // case interleaves schedule_old_relays batches with single
  // schedule_new_relay calls, some requirements land exactly on the fit
  // bound, and most cases fill the period until it throws.
  const std::vector<int> short_periods = {1, 20, 64, 65, 240};
  sim::Rng rng(0x5c4ed);
  int bound_hits = 0;
  int throws = 0;
  {
    // Hand-built: after one relay fills part of slot 0, a second whose
    // requirement lands exactly on the bound joins it.
    const Params p;
    const double team = net::gbit(3);
    LockstepSchedules both(p, team, 9);
    both.new_relay(net::mbit(700));
    const double x =
        estimate_on_the_bound(both.want.loads()[0], team, p.excess_factor());
    ASSERT_GT(x, 0.0);
    both.new_relay(x);
    EXPECT_EQ(both.got.slot_load_bits(0), team + 1e-6);
    both.expect_same_next_placement();
  }
  for (int trial = 0; trial < 64; ++trial) {
    const int family = trial % 4;
    const int slots =
        trial < 4 ? 2880
                  : short_periods[static_cast<std::size_t>(trial / 4) %
                                  short_periods.size()];
    Params p;
    p.period = sim::from_seconds(30.0 * slots);
    const double f = p.excess_factor();
    const double team = rng.chance(0.5) ? net::gbit(3)
                                        : rng.uniform(net::gbit(0.5),
                                                      net::gbit(5));
    const double max_prior = team / f * (1.0 - 1e-9);
    LockstepSchedules both(p, team, rng());
    ASSERT_EQ(both.got.slots_in_period(), slots);

    const std::vector<double> tied = {0.0, net::mbit(2), net::mbit(17),
                                      net::mbit(100), max_prior / 3,
                                      max_prior};
    auto estimate = [&]() -> double {
      switch (family) {
        case 0:  // the §7 mixture
          return std::min({rng.log_normal(17.42, 1.45), 998e6, max_prior});
        case 1:  // tied capacities
          return tied[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(tied.size()) - 1))];
        case 2:  // zero estimates among a mixture
          return rng.chance(0.3)
                     ? 0.0
                     : std::min(rng.log_normal(17.0, 1.5), max_prior);
        default:  // period feedback: half clamped at the maximum
          return rng.chance(0.5)
                     ? max_prior
                     : std::min(rng.log_normal(19.0, 1.5), max_prior);
      }
    };

    // Place requirements summing to 0.5x to 2x a short period's capacity,
    // so most cases end in a throw. A day takes 2,000 relays, except that
    // the clamped family runs until it throws (after about 3,500).
    const double budget =
        (slots == 2880 ? 2.0 : rng.uniform(0.5, 2.0)) * team * slots;
    const int max_relays =
        slots < 2880 ? 1 << 30 : (family == 3 ? 6419 : 2000);
    double requirement = 0.0;
    int relays = 0;
    while (requirement < budget && relays < max_relays && !HasFailure()) {
      bool threw = false;
      if (rng.chance(0.3)) {
        const double x = estimate();
        requirement += f * x;
        ++relays;
        threw = both.new_relay(x);
      } else if (rng.chance(0.1)) {
        // A requirement exactly on the fit bound of a random slot.
        const double x = estimate_on_the_bound(
            both.want.loads()[static_cast<std::size_t>(
                rng.uniform_int(0, slots - 1))],
            team, f);
        if (x > 0.0) {
          ++bound_hits;
          requirement += f * x;
          ++relays;
          threw = rng.chance(0.5)
                      ? both.new_relay(x)
                      : both.old_relays(std::span<const double>(&x, 1));
        }
      } else {
        std::vector<double> batch(
            static_cast<std::size_t>(rng.uniform_int(1, 40)));
        for (double& x : batch) {
          x = estimate();
          requirement += f * x;
        }
        relays += static_cast<int>(batch.size());
        threw = both.old_relays(batch);
      }
      both.expect_same_next_placement();
      if (threw) {
        ++throws;
        break;
      }
    }
  }
  // The families reach both the exact bound and a full period.
  EXPECT_GT(bound_hits, 20);
  EXPECT_GT(throws, 10);
}

}  // namespace
}  // namespace flashflow::core
