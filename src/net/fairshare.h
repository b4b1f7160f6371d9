// Weighted max-min fair rate allocation (progressive filling).
//
// Given resources with capacities and flows that each traverse a set of
// resources, carry a weight, and may have an individual rate cap, computes
// the weighted max-min fair allocation: all flows' rates rise together in
// proportion to their weights until a resource saturates or a flow hits its
// cap; saturated flows freeze, and the rest continue.
//
// This is the standard fluid approximation of TCP bandwidth sharing used by
// flow-level network simulators.
//
// Two entry points:
//   - FairShareSolver::solve(): owns all solver scratch across calls, so
//     per-second simulation loops (core::SlotRunner) allocate nothing after
//     warm-up. The filling is event-driven: each iteration touches only the
//     resources that can still bind, one level per weight class, and the
//     flows that freeze (see fairshare.cpp and docs/determinism.md for why
//     the rates are bit-identical to a scan over every flow and resource).
//   - max_min_fair_rates(): one-shot convenience wrapper over a fresh
//     solver, returning an owned vector.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace flashflow::net {

struct FairShareResource {
  double capacity = 0;  // bits/s; <= 0 means unconstrained
};

struct FairShareFlow {
  std::vector<std::size_t> resources;  // indices into the resource vector
  double weight = 1.0;  // relative share (e.g. socket count); finite, > 0
  /// bits/s; <= 0 freezes the flow at 0, NaN is rejected.
  double cap = std::numeric_limits<double>::infinity();
};

/// Progressive-filling solver with reusable scratch. Successive solves are
/// bit-identical to fresh ones (the algorithm never reads stale state), so
/// one solver instance can serve a whole simulation loop.
class FairShareSolver {
 public:
  /// Returns per-flow rates in bits/s. Guarantees:
  ///   - no resource's total allocated rate exceeds its capacity (within
  ///     eps);
  ///   - no flow exceeds its cap;
  ///   - the allocation is weighted max-min fair (no flow's rate can
  ///     increase without decreasing that of a flow with an
  ///     equal-or-smaller rate-to-weight ratio).
  ///
  /// Throws std::invalid_argument for a non-finite or non-positive weight
  /// or a NaN cap, std::out_of_range for a bad resource index.
  ///
  /// The returned span aliases solver-owned storage and is invalidated by
  /// the next solve() call; copy it out to keep it.
  std::span<const double> solve(std::span<const FairShareResource> resources,
                                std::span<const FairShareFlow> flows);

  /// Preprocesses a flow set for repeated solves against varying resource
  /// capacities (the per-second slot loop: flows are slot invariants, only
  /// relay capacities change). Validates the flows, flattens their
  /// resource lists, precomputes the initial active-weight table, groups
  /// the flows into weight classes and builds the resource→flow incidence
  /// lists. `num_resources` must equal the size of every resources span
  /// later passed to solve_prepared. The flow data is copied: the span may
  /// die after prepare returns.
  void prepare(std::span<const FairShareFlow> flows,
               std::size_t num_resources);

  /// Solves the prepared flow set; bit-identical to solve(resources,
  /// flows) with the flows passed to prepare(). Same span-invalidation
  /// rule as solve().
  std::span<const double> solve_prepared(
      std::span<const FairShareResource> resources);

  /// Flows still competing after the last prepare() (zero-cap flows are
  /// folded away at prepare time). Telemetry reads this for the
  /// solver/active_flows gauge; 0 before the first prepare.
  std::size_t prepared_active_flows() const { return active_init_.size(); }

 private:
  /// A prepared flow: its weight, its slice of res_index_ and its weight
  /// class.
  struct FlowInfo {
    double weight = 0;
    std::size_t res_begin = 0;  // resources: res_index_[res_begin .. res_end)
    std::size_t res_end = 0;
    std::size_t cls = 0;  // weight class (active flows only)
  };
  /// A prepared resource: the weight of the active flows crossing it
  /// before any filling (zero-cap flows already subtracted), and its slice
  /// of inc_flow_ (the active flows crossing it, ascending).
  struct ResourceInfo {
    double base_weight = 0;
    std::size_t inc_begin = 0;
    std::size_t inc_end = 0;
    bool grouped = false;  // placed in a twin group
  };
  /// An active flow as a member of its weight class.
  struct Member {
    double weight = 0;
    double cap = 0;
    std::size_t flow = 0;
  };
  /// One exact weight value: members_[begin .. end), in ascending (cap,
  /// flow) order. level, cursor and active are per-solve state.
  struct WeightClass {
    double weight = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    double level = 0;  // the rate of every active member
    /// Every member before this position is frozen, so the first active
    /// one at or after it holds the class's lowest active cap.
    std::size_t cursor = 0;
    std::size_t active = 0;  // active member count
  };
  /// Per resource during a solve: capacity left and the weight of the
  /// active flows crossing it.
  struct ResourceState {
    double remaining = 0;
    double weight = 0;
  };

  // ---- prepare() products: invariants of the flow set -------------------
  /// prepared_ is false until a prepare() run completes, so a validation
  /// throw mid-prepare cannot be followed by a solve over half-built state.
  bool prepared_ = false;
  std::size_t num_resources_ = 0;
  std::vector<FlowInfo> flows_;
  std::vector<ResourceInfo> resources_;
  /// Flow→resource lists flattened into one arena (see FlowInfo).
  std::vector<std::size_t> res_index_;
  /// Flows that start active (cap > 0), ascending.
  std::vector<std::size_t> active_init_;
  /// Resource→flow incidence arena (see ResourceInfo).
  std::vector<std::size_t> inc_flow_;
  /// The active flows sorted by (weight, cap, flow), so every weight class
  /// is one contiguous run in ascending cap order.
  std::vector<Member> members_;
  std::vector<WeightClass> classes_;
  /// The resources that can bind, in twin groups: the same active flows
  /// cross every member of a group (with multiplicity) and their base
  /// weights are equal, so their active weights stay equal through a
  /// solve. Group g is twins_[twin_begin_[g] .. twin_begin_[g + 1]).
  std::vector<std::size_t> twins_;
  std::vector<std::size_t> twin_begin_;

  // ---- per-solve working state (capacity persists across solves) -------
  std::vector<double> rates_;
  std::vector<unsigned char> frozen_;  // per flow: 1 once frozen
  std::vector<ResourceState> state_;
  /// Index scratch, sized by prepare(): the live resources (per twin
  /// group, the member with the least finite capacity, while its active
  /// weight is above eps; the list only shrinks, since active weights only
  /// decrease), the resources saturated and the flows frozen in the
  /// current step, and the classes with active members.
  std::vector<std::size_t> work_;
};

/// One-shot convenience wrapper: solves with a fresh FairShareSolver and
/// copies the rates out. Prefer a reused solver in per-second loops.
std::vector<double> max_min_fair_rates(
    const std::vector<FairShareResource>& resources,
    const std::vector<FairShareFlow>& flows);

}  // namespace flashflow::net
