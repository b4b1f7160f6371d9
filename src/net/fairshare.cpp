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
//   - A twin group whose least capacity exceeds the sum of its active
//     flows' caps by kSlackRelative and kSlackAbsolute, and whose weights
//     add exactly, is not live either: its quotient always exceeds the cap
//     candidate of one of its own active flows, so it never sets a step,
//     and it never saturates (a measurer NIC its allocations do not fill).
//   - Flows of equal weight form a class. Every active flow has received
//     the same `step * weight` additions from 0.0, so one level per class
//     is, bit for bit, each member's rate.
//   - (cap - level) / weight is monotone in cap, so a class's cap candidate
//     is its lowest active cap, and the flows reaching their caps are a
//     prefix of the class's cap order.
//   - Resource-bound freezes come from the incidence lists of the resources
//     saturated this step.
//   - With kIndexCutoff or more live resources, the SaturationIndex finds
//     the step's least resource quotient and its saturated resources among
//     the few whose key lies within the drift bound of the heap's top; a
//     window holding a non-positive or non-finite quotient makes the step
//     scan every live resource instead.
// Every value that reaches a rate is produced by the same floating-point
// operations, in the same order, as the scan-everything loop (kept as the
// reference in tests/test_net_fairshare.cpp); docs/determinism.md gives the
// argument. tests/test_golden_determinism.cpp relies on this.

namespace {
constexpr double kEps = 1e-9;
constexpr std::size_t kNotLive = std::numeric_limits<std::size_t>::max();
/// A twin group is slack when its least capacity exceeds
/// cap_sum * (1 + kSlackRelative) + kSlackAbsolute. The relative part
/// covers the rounding of the cap sum, the drains and the class levels over
/// a flow set of fewer than kSlackMaxSize flows and incidences; the
/// absolute part keeps the remaining capacity above kEps.
constexpr double kSlackRelative = 1e-6;
constexpr double kSlackAbsolute = 2 * kEps;
constexpr std::size_t kSlackMaxSize = std::size_t{1} << 28;
}  // namespace

// The AVX2 clone of SaturationIndex::drain runs four lanes where the
// baseline x86-64 one runs two. Every lane rounds the same product and the
// same difference on its own, so the clones agree bit for bit unless the
// compiler fuses the two into a multiply-add, which CMakeLists.txt rules
// out with -ffp-contract=off. A ThreadSanitizer build keeps one drain: the
// loader calls the clones' resolver before the sanitizer's runtime has
// started, and the instrumented resolver crashes the program.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define FLASHFLOW_DRAIN_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define FLASHFLOW_DRAIN_CLONES
#endif

// ---- SaturationIndex ------------------------------------------------------

void FairShareSolver::SaturationIndex::size_for(std::size_t live,
                                                std::size_t resources) {
  remaining_.resize(live);
  weight_.resize(live);
  info_.resize(live);
  heap_.resize(live);
  window_.resize(live);
  live_of_.resize(resources);
}

// A key is `remaining / weight + level`: the level at which the resource
// would saturate if its weight stayed put. Draining by step * weight and
// adding step to the level leave it unchanged up to rounding. A quotient
// that is non-positive or non-finite (or a key that overflows) keys at
// -inf, so the resource is always in the window and its step scans.
double FairShareSolver::SaturationIndex::key_of(std::size_t p) const {
  const double quotient = remaining_[p] / weight_[p];
  const double key = quotient + level_;
  return quotient > 0 && std::isfinite(key)
             ? key
             : -std::numeric_limits<double>::infinity();
}

void FairShareSolver::SaturationIndex::place(std::size_t h, Entry e) {
  heap_[h] = e;
  info_[e.live].heap = h;
}

void FairShareSolver::SaturationIndex::sift_up(std::size_t h) {
  const Entry e = heap_[h];
  while (h > 0) {
    const std::size_t parent = (h - 1) / 2;
    if (!(e.key < heap_[parent].key)) break;
    place(h, heap_[parent]);
    h = parent;
  }
  place(h, e);
}

void FairShareSolver::SaturationIndex::sift_down(std::size_t h) {
  const Entry e = heap_[h];
  for (;;) {
    std::size_t child = 2 * h + 1;
    if (child >= n_) break;
    child += static_cast<std::size_t>(child + 1 < n_ &&
                                      heap_[child + 1].key < heap_[child].key);
    if (!(heap_[child].key < e.key)) break;
    place(h, heap_[child]);
    h = child;
  }
  place(h, e);
}

// Drops live position p: the last live position moves into p, the last heap
// entry into p's heap slot.
void FairShareSolver::SaturationIndex::remove(std::size_t p) {
  const std::size_t hole = info_[p].heap;
  const std::size_t last = n_ - 1;
  live_of_[info_[p].resource] = kNotLive;
  if (p != last) {
    remaining_[p] = remaining_[last];
    weight_[p] = weight_[last];
    info_[p] = info_[last];
    live_of_[info_[p].resource] = p;
    heap_[info_[p].heap].live = p;
  }
  n_ = last;
  if (hole == n_) return;
  // The hole is usually the top (the resource saturated first). Walk it
  // down to a leaf along the lesser children, then sift the last entry up
  // from there: it came from the bottom, so it rarely climbs far.
  std::size_t h = hole;
  for (std::size_t child = 2 * h + 1; child < n_; child = 2 * h + 1) {
    child += static_cast<std::size_t>(child + 1 < n_ &&
                                      heap_[child + 1].key < heap_[child].key);
    place(h, heap_[child]);
    h = child;
  }
  place(h, heap_[n_]);
  sift_up(h);
}

void FairShareSolver::SaturationIndex::build(
    std::span<const std::size_t> live, std::span<const ResourceState> state) {
  std::fill(live_of_.begin(), live_of_.end(), kNotLive);
  n_ = live.size();
  level_ = 0.0;
  steps_ = 0;
  weight_floor_ = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t r = live[p];
    remaining_[p] = state[r].remaining;
    weight_[p] = state[r].weight;
    weight_floor_ = std::min(weight_floor_, weight_[p]);
    info_[p] = {r, p, false};
    live_of_[r] = p;
    heap_[p] = {key_of(p), p};
  }
  eps_margin_ = kEps / weight_floor_;
  for (std::size_t h = n_ / 2; h-- > 0;) sift_down(h);
}

// The window: every heap entry whose key is at most
//   (E + eps / weight_floor + level) * (1 + 4 * drift),
//   drift = (steps + 8) * 2^-52,
// with E the top entry's exact quotient. A key differs from its resource's
// exact quotient plus the level by at most drift * (key + level), so a
// resource keyed above the window has a quotient above
// (E + eps / weight)(1 + 5u): it is not the least, and the drain cannot
// bring it to eps (docs/determinism.md). The entries at or below a bound
// form a subtree at the root, collected breadth-first.
bool FairShareSolver::SaturationIndex::window_min(double& step,
                                                  std::uint64_t& quotients) {
  n_window_ = 0;
  if (n_ == 0) return true;
  const auto quotient = [this](std::size_t h) {
    const std::size_t p = heap_[h].live;
    return remaining_[p] / weight_[p];
  };
  double least = quotient(0);
  ++quotients;
  const double drift = static_cast<double>(steps_ + 8) * 0x1p-52;
  const double bound = (least + eps_margin_ + level_) * (1.0 + 4.0 * drift);
  if (!(least > 0) || !std::isfinite(bound)) return false;
  window_[n_window_++] = 0;
  for (std::size_t i = 0; i < n_window_; ++i) {
    const std::size_t first = 2 * window_[i] + 1;
    for (std::size_t c = first; c < first + 2 && c < n_; ++c) {
      if (!(heap_[c].key <= bound)) continue;
      const double q = quotient(c);
      ++quotients;
      if (!(q > 0) || !std::isfinite(q)) return false;
      least = std::min(least, q);
      window_[n_window_++] = c;
    }
  }
  step = least;
  return true;
}

double FairShareSolver::SaturationIndex::scan_min(
    std::uint64_t& quotients) const {
  double least = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < n_; ++p)
    least = std::min(least, remaining_[p] / weight_[p]);
  quotients += n_;
  return least;
}

FLASHFLOW_DRAIN_CLONES
void FairShareSolver::SaturationIndex::drain(double step) {
  double* const remaining = remaining_.data();
  const double* const weight = weight_.data();
  for (std::size_t p = 0; p < n_; ++p) remaining[p] -= step * weight[p];
  level_ += step;
  ++steps_;
}

std::size_t FairShareSolver::SaturationIndex::saturated(
    bool scanned, std::size_t* out) const {
  std::size_t n = 0;
  if (scanned) {
    for (std::size_t p = 0; p < n_; ++p)
      if (remaining_[p] <= kEps) out[n++] = info_[p].resource;
  } else {
    for (std::size_t i = 0; i < n_window_; ++i) {
      const std::size_t p = heap_[window_[i]].live;
      if (remaining_[p] <= kEps) out[n++] = info_[p].resource;
    }
  }
  return n;
}

void FairShareSolver::SaturationIndex::subtract(std::size_t resource,
                                                double weight,
                                                std::size_t* touched,
                                                std::size_t& n_touched) {
  const std::size_t p = live_of_[resource];
  if (p == kNotLive) return;
  weight_[p] -= weight;
  if (!info_[p].touched) {
    info_[p].touched = true;
    touched[n_touched++] = resource;
  }
}

void FairShareSolver::SaturationIndex::rekey(const std::size_t* touched,
                                             std::size_t n_touched) {
  for (std::size_t i = 0; i < n_touched; ++i) {
    const std::size_t p = live_of_[touched[i]];
    info_[p].touched = false;
    if (!(weight_[p] > kEps)) {
      remove(p);
      continue;
    }
    if (weight_[p] < weight_floor_) {
      weight_floor_ = weight_[p];
      eps_margin_ = kEps / weight_floor_;
    }
    const std::size_t h = info_[p].heap;
    const double key = key_of(p);
    const bool up = key < heap_[h].key;
    heap_[h].key = key;
    if (up)
      sift_up(h);
    else
      sift_down(h);
  }
}

// ---- FairShareSolver --------------------------------------------------------

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
  // Whole-number weights whose sum over every incidence is below 2^53 add
  // and subtract exactly at every resource, which pruning slack groups
  // needs. The running sum only grows, so its last value decides.
  bool whole_weights = true;
  double weight_total = 0.0;
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
    whole_weights = whole_weights && weight == std::floor(weight);
    for (const std::size_t r : flows[f].resources) {
      if (r >= num_resources)
        throw std::out_of_range("max_min_fair_rates: bad resource index");
      res_index_.push_back(r);
      resources_[r].base_weight += weight;
      weight_total += weight;
    }
    info.res_end = res_index_.size();
  }
  whole_weights = whole_weights && weight_total < 0x1p53 &&
                  flows.size() + res_index_.size() < kSlackMaxSize;
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

  // Twins are crossed by the same active flows in the same order, so they
  // share one cap sum, and the slack bound is set once per group.
  const std::size_t groups = twin_begin_.size() - 1;
  slack_above_.assign(groups, std::numeric_limits<double>::infinity());
  for (std::size_t g = 0; whole_weights && g < groups; ++g) {
    const ResourceInfo& lead = resources_[twins_[twin_begin_[g]]];
    double cap_sum = 0.0;
    for (std::size_t k = lead.inc_begin; k < lead.inc_end; ++k)
      cap_sum += flows[inc_flow_[k]].cap;
    slack_above_[g] = cap_sum * (1.0 + kSlackRelative) + kSlackAbsolute;
  }

  // Size the per-solve scratch once, so solve_prepared only writes through
  // indices.
  state_.resize(num_resources);
  work_.resize(2 * num_resources + active_init_.size() + classes_.size());
  if (groups >= kIndexCutoff) index_.size_for(groups, num_resources);
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
  // without it. Nor is it live when that capacity is slack.
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
    if (best != num_resources_ && !(least > slack_above_[g])) {
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
  const bool indexed = n_live >= kIndexCutoff;
  if (indexed) index_.build({live, n_live}, state_);
  std::uint64_t fill_steps = 0;
  std::uint64_t quotients = 0;

  while (n_active > 0) {
    ++fill_steps;
    // Largest uniform per-weight increment before a resource saturates or a
    // flow reaches its cap. min() is exact, so the candidates may be
    // visited in any order. Resources whose active weight fell to eps or
    // below leave the live list here, for good (the index drops them as
    // their weight falls).
    double step = std::numeric_limits<double>::infinity();
    bool scanned = true;
    if (indexed) {
      scanned = !index_.window_min(step, quotients);
      if (scanned) step = index_.scan_min(quotients);
    } else {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < n_live; ++i) {
        const ResourceState& st = state_[live[i]];
        if (st.weight > kEps) {
          live[kept++] = live[i];
          step = std::min(step, st.remaining / st.weight);
        }
      }
      n_live = kept;
      quotients += n_live;
    }
    std::size_t kept = 0;
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
    if (indexed) {
      index_.drain(step);
      n_saturated = index_.saturated(scanned, saturated);
    } else {
      for (std::size_t i = 0; i < n_live; ++i) {
        ResourceState& st = state_[live[i]];
        st.remaining -= step * st.weight;
        if (st.remaining <= kEps) saturated[n_saturated++] = live[i];
      }
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
    // scan over the active flows subtracts in. The index then re-keys the
    // live resources whose weight moved, listed in the saturated buffer
    // (no longer needed this step).
    if (n_frozen > 1) std::sort(frozen_now, frozen_now + n_frozen);
    if (indexed) {
      std::size_t n_touched = 0;
      for (std::size_t j = 0; j < n_frozen; ++j) {
        const FlowInfo& info = flows_[frozen_now[j]];
        for (std::size_t k = info.res_begin; k < info.res_end; ++k)
          index_.subtract(res_index_[k], info.weight, saturated, n_touched);
      }
      index_.rekey(saturated, n_touched);
    } else {
      for (std::size_t j = 0; j < n_frozen; ++j) {
        const FlowInfo& info = flows_[frozen_now[j]];
        for (std::size_t k = info.res_begin; k < info.res_end; ++k)
          state_[res_index_[k]].weight -= info.weight;
      }
    }
    n_active -= n_frozen;
  }
  counters_.fill_steps += fill_steps;
  counters_.exact_quotients += quotients;
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
