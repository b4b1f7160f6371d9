#include "net/fairshare.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flashflow::net {

// Event-driven progressive filling. Each filling iteration ("step") finds
// the largest uniform per-weight increment before a resource saturates or
// a flow reaches its cap, advances every active flow by step * weight, and
// freezes the flows that hit a constraint. The textbook formulation scans
// every resource and every active flow per step; this one touches only
// what can still bind:
//   - The live list holds the finite resources whose active weight is
//     > kEps. Active weights only ever decrease, so a resource that drops
//     out never binds again and is compacted away.
//   - Twin resources (the same active flows cross them and their base
//     weights are equal) have equal active weights throughout, so the one
//     with the least capacity always has the least remaining: only it is
//     live.
//   - Flows of equal weight form a class. Every active flow has received
//     the same `step * weight` additions from 0.0, so one level per class
//     is, bit for bit, each member's rate.
//   - (cap - level) / weight is monotone in cap, so a class's cap candidate
//     is its lowest active cap, and the flows reaching their caps are a
//     prefix of the class's cap order.
//   - Resource-bound freezes come from the incidence lists of the resources
//     saturated this step.
// Every value that reaches a rate is produced by the same floating-point
// operations, in the same order, as the scan-everything loop (kept as the
// reference in tests/test_net_fairshare.cpp); docs/determinism.md gives the
// argument. tests/test_golden_determinism.cpp relies on this.

namespace {
constexpr double kEps = 1e-9;
}  // namespace

void FairShareSolver::prepare(std::span<const FairShareFlow> flows,
                              std::size_t num_resources) {
  // Invalidate first: a validation throw below must not leave a half-built
  // flow set that a later solve_prepared would index out of bounds.
  prepared_ = false;
  num_resources_ = num_resources;
  flows_.resize(flows.size());
  res_index_.clear();
  // Weight of active flows at each resource. Summed over every flow in
  // index order (zero-cap flows are subtracted back out below, not
  // skipped): floating-point addition order is part of the contract.
  resources_.assign(num_resources, ResourceInfo{});
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double weight = flows[f].weight;
    // NaN fails every comparison, so test for finiteness before the sign.
    if (!std::isfinite(weight))
      throw std::invalid_argument("max_min_fair_rates: non-finite weight");
    if (weight <= 0.0)
      throw std::invalid_argument("max_min_fair_rates: non-positive weight");
    if (std::isnan(flows[f].cap))
      throw std::invalid_argument("max_min_fair_rates: NaN cap");
    FlowInfo& info = flows_[f];
    info.weight = weight;
    info.res_begin = res_index_.size();
    for (const std::size_t r : flows[f].resources) {
      if (r >= num_resources)
        throw std::out_of_range("max_min_fair_rates: bad resource index");
      res_index_.push_back(r);
      resources_[r].base_weight += weight;
    }
    info.res_end = res_index_.size();
  }
  // Flows with an immediate zero cap freeze straight away; fold both their
  // exclusion and their weight removal into the prepared baseline. Each
  // active flow is counted at its resources (in inc_end) for the
  // incidence lists, and becomes a class member.
  active_init_.clear();
  members_.clear();
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const FlowInfo& info = flows_[f];
    if (flows[f].cap <= 0.0) {
      for (std::size_t k = info.res_begin; k < info.res_end; ++k)
        resources_[res_index_[k]].base_weight -= info.weight;
    } else {
      active_init_.push_back(f);
      members_.push_back({info.weight, flows[f].cap, f});
      for (std::size_t k = info.res_begin; k < info.res_end; ++k)
        ++resources_[res_index_[k]].inc_end;
    }
  }
  // Resource→flow incidence: turn the counts into slices of inc_flow_,
  // then place every active flow, ascending, by advancing inc_end.
  std::size_t total = 0;
  for (ResourceInfo& res : resources_) {
    const std::size_t count = res.inc_end;
    res.inc_begin = res.inc_end = total;
    total += count;
  }
  inc_flow_.resize(total);
  for (const std::size_t f : active_init_)
    for (std::size_t k = flows_[f].res_begin; k < flows_[f].res_end; ++k)
      inc_flow_[resources_[res_index_[k]].inc_end++] = f;

  // Weight classes: one sort by (weight, cap, flow) lays every class out
  // contiguously in ascending cap order (weights and caps are never NaN
  // here, so the order is strict and total).
  std::sort(members_.begin(), members_.end(),
            [](const Member& a, const Member& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              if (a.cap != b.cap) return a.cap < b.cap;
              return a.flow < b.flow;
            });
  classes_.clear();
  for (std::size_t p = 0; p < members_.size(); ++p) {
    if (p == 0 || members_[p].weight != classes_.back().weight) {
      WeightClass c;
      c.weight = members_[p].weight;
      c.begin = p;
      classes_.push_back(c);
    }
    classes_.back().end = p + 1;
    flows_[members_[p].flow].cls = classes_.size() - 1;
  }

  // Twin groups over the resources that can bind. Twins have equal
  // incidence slices, so they share their first active flow and all appear
  // in its resource list: each group is gathered while scanning that list.
  // A resource no active flow crosses stays alone.
  twins_.clear();
  twin_begin_.clear();
  const auto open_group = [this](std::size_t r) {
    resources_[r].grouped = true;
    twin_begin_.push_back(twins_.size());
    twins_.push_back(r);
  };
  for (std::size_t r = 0; r < num_resources; ++r)
    if (resources_[r].base_weight > kEps &&
        resources_[r].inc_begin == resources_[r].inc_end)
      open_group(r);
  for (const std::size_t f : active_init_) {
    const FlowInfo& info = flows_[f];
    for (std::size_t k = info.res_begin; k < info.res_end; ++k) {
      const ResourceInfo& lead = resources_[res_index_[k]];
      if (lead.grouped || !(lead.base_weight > kEps) ||
          inc_flow_[lead.inc_begin] != f)
        continue;
      open_group(res_index_[k]);
      for (std::size_t j = k + 1; j < info.res_end; ++j) {
        ResourceInfo& other = resources_[res_index_[j]];
        if (!other.grouped && other.base_weight == lead.base_weight &&
            std::equal(inc_flow_.begin() + lead.inc_begin,
                       inc_flow_.begin() + lead.inc_end,
                       inc_flow_.begin() + other.inc_begin,
                       inc_flow_.begin() + other.inc_end)) {
          other.grouped = true;
          twins_.push_back(res_index_[j]);
        }
      }
    }
  }
  twin_begin_.push_back(twins_.size());

  // Size the per-solve scratch once, so solve_prepared only writes through
  // indices.
  state_.resize(num_resources);
  work_.resize(2 * num_resources + active_init_.size() + classes_.size());
  prepared_ = true;
}

// FF_HOT_BEGIN: per-second fair-share re-solve — runs once per simulated
// second per slot; every working vector below is pooled scratch whose
// capacity persists across solves (ffcheck guards the region).
std::span<const double> FairShareSolver::solve_prepared(
    std::span<const FairShareResource> resources) {
  if (!prepared_)
    throw std::logic_error(
        "FairShareSolver: solve_prepared without a successful prepare");
  if (resources.size() != num_resources_)
    throw std::invalid_argument(
        "FairShareSolver: resources size changed since prepare");

  const std::size_t num_flows = flows_.size();
  rates_.assign(num_flows, 0.0);
  frozen_.assign(num_flows, 0);
  std::size_t* const live = work_.data();
  std::size_t* const saturated = live + num_resources_;
  std::size_t* const frozen_now = saturated + num_resources_;
  std::size_t* const live_classes = frozen_now + active_init_.size();

  for (std::size_t r = 0; r < num_resources_; ++r)
    state_[r].weight = resources_[r].base_weight;
  // A capacity <= 0 (or NaN, or +inf) leaves the resource unconstrained,
  // so it is never live. Of a twin group only the member with the least
  // capacity is: every member is drained by the same amounts and rounding
  // is monotone, so no other member can offer a smaller step or saturate
  // without it.
  std::size_t n_live = 0;
  for (std::size_t g = 0; g + 1 < twin_begin_.size(); ++g) {
    std::size_t best = num_resources_;
    double least = 0;
    for (std::size_t i = twin_begin_[g]; i < twin_begin_[g + 1]; ++i) {
      const double capacity = resources[twins_[i]].capacity;
      if (capacity > 0 && std::isfinite(capacity) &&
          (best == num_resources_ || capacity < least)) {
        best = twins_[i];
        least = capacity;
      }
    }
    if (best != num_resources_) {
      state_[best].remaining = least;
      live[n_live++] = best;
    }
  }
  std::size_t n_classes = classes_.size();
  for (std::size_t c = 0; c < n_classes; ++c) {
    classes_[c].level = 0.0;
    classes_[c].cursor = classes_[c].begin;
    classes_[c].active = classes_[c].end - classes_[c].begin;
    live_classes[c] = c;
  }
  std::size_t n_active = active_init_.size();
  std::size_t lowest = 0;  // active_init_ position of the lowest active flow

  while (n_active > 0) {
    // Largest uniform per-weight increment before a resource saturates or a
    // flow reaches its cap. min() is exact, so the candidates may be
    // visited in any order. Resources whose active weight fell to eps or
    // below leave the live list here, for good.
    double step = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n_live; ++i) {
      const ResourceState& st = state_[live[i]];
      if (st.weight > kEps) {
        live[kept++] = live[i];
        step = std::min(step, st.remaining / st.weight);
      }
    }
    n_live = kept;
    kept = 0;
    for (std::size_t j = 0; j < n_classes; ++j) {
      WeightClass& c = classes_[live_classes[j]];
      if (c.active == 0) continue;
      live_classes[kept++] = live_classes[j];
      while (frozen_[members_[c.cursor].flow]) ++c.cursor;
      const double cap = members_[c.cursor].cap;
      if (std::isfinite(cap))
        step = std::min(step, (cap - c.level) / c.weight);
    }
    n_classes = kept;
    if (!std::isfinite(step)) {
      // No binding constraint: remaining flows are unconstrained. Assign an
      // effectively unbounded rate; callers treat it as "not the bottleneck".
      for (const std::size_t f : active_init_)
        if (!frozen_[f]) rates_[f] = std::numeric_limits<double>::infinity();
      break;
    }
    step = std::max(step, 0.0);

    // Drain the live resources and note the ones this step saturated.
    std::size_t n_saturated = 0;
    for (std::size_t i = 0; i < n_live; ++i) {
      ResourceState& st = state_[live[i]];
      st.remaining -= step * st.weight;
      if (st.remaining <= kEps) saturated[n_saturated++] = live[i];
    }

    // Advance every class and freeze its members now at their caps: a
    // prefix of the active members in cap order.
    std::size_t n_frozen = 0;
    const auto freeze = [&](std::size_t f) {
      frozen_[f] = 1;
      WeightClass& c = classes_[flows_[f].cls];
      rates_[f] = c.level;
      --c.active;
      frozen_now[n_frozen++] = f;
    };
    for (std::size_t j = 0; j < n_classes; ++j) {
      WeightClass& c = classes_[live_classes[j]];
      c.level += step * c.weight;
      for (std::size_t p = c.cursor; p < c.end; ++p) {
        const Member& m = members_[p];
        if (frozen_[m.flow]) continue;
        if (!(c.level >= m.cap - kEps)) break;
        freeze(m.flow);
      }
    }
    // Freeze the active flows crossing a resource saturated this step.
    for (std::size_t s = 0; s < n_saturated; ++s) {
      const ResourceInfo& res = resources_[saturated[s]];
      for (std::size_t k = res.inc_begin; k < res.inc_end; ++k)
        if (!frozen_[inc_flow_[k]]) freeze(inc_flow_[k]);
    }
    // Numerical safety: if nothing froze, freeze the flow closest to a
    // constraint (the lowest-indexed active one) so the loop always
    // terminates.
    if (n_frozen == 0) {
      while (frozen_[active_init_[lowest]]) ++lowest;
      freeze(active_init_[lowest]);
    }
    // Remove the frozen flows' weight in ascending flow index: the order a
    // scan over the active flows subtracts in.
    if (n_frozen > 1) std::sort(frozen_now, frozen_now + n_frozen);
    for (std::size_t j = 0; j < n_frozen; ++j) {
      const FlowInfo& info = flows_[frozen_now[j]];
      for (std::size_t k = info.res_begin; k < info.res_end; ++k)
        state_[res_index_[k]].weight -= info.weight;
    }
    n_active -= n_frozen;
  }
  return {rates_.data(), num_flows};
}
// FF_HOT_END: per-second fair-share re-solve

std::span<const double> FairShareSolver::solve(
    std::span<const FairShareResource> resources,
    std::span<const FairShareFlow> flows) {
  prepare(flows, resources.size());
  return solve_prepared(resources);
}

std::vector<double> max_min_fair_rates(
    const std::vector<FairShareResource>& resources,
    const std::vector<FairShareFlow>& flows) {
  FairShareSolver solver;
  const auto rates = solver.solve(resources, flows);
  return {rates.begin(), rates.end()};
}

}  // namespace flashflow::net
