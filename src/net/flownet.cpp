#include "net/flownet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/units.h"

namespace flashflow::net {

namespace {
// Stand-in for "unconstrained" so arithmetic stays finite.
constexpr double kHugeRate = 1e15;  // bits/s
// A flow is complete once less than one byte remains: sub-byte residues
// are rounding artifacts of the microsecond clock, and chasing them would
// spin the completion scheduler at a single timestamp.
constexpr double kByteEps = 1.0;
}  // namespace

FlowNet::FlowNet(sim::Simulator& simulator) : sim_(simulator) {}

ResourceId FlowNet::add_resource(double capacity_bits) {
  resources_.push_back({capacity_bits});
  return resources_.size() - 1;
}

double FlowNet::resource_usage(ResourceId id) {
  if (id >= resources_.size()) throw std::out_of_range("FlowNet resource");
  sync();
  double used = 0.0;
  for (const auto& [fid, flow] : flows_) {
    (void)fid;
    if (std::find(flow.spec.resources.begin(), flow.spec.resources.end(),
                  id) != flow.spec.resources.end())
      used += flow.rate_bits;
  }
  return used;
}

FlowId FlowNet::add_flow(FlowSpec spec) {
  for (const ResourceId r : spec.resources)
    if (r >= resources_.size())
      throw std::out_of_range("FlowNet::add_flow: bad resource id");
  if (spec.weight <= 0.0)
    throw std::invalid_argument("FlowNet::add_flow: non-positive weight");
  sync();
  const FlowId id = next_flow_id_++;
  FlowState state;
  state.remaining_bytes = spec.volume_bytes >= 0.0
                              ? spec.volume_bytes
                              : std::numeric_limits<double>::infinity();
  state.spec = std::move(spec);
  flows_.emplace(id, std::move(state));
  recompute_rates();
  return id;
}

void FlowNet::remove_flow(FlowId id) {
  sync();
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;  // already completed/removed
  flows_.erase(it);
  recompute_rates();
}

void FlowNet::sync() { advance_to(sim_.now()); }

void FlowNet::advance_to(sim::SimTime t) {
  if (advancing_ || t <= last_time_) return;
  advancing_ = true;
  std::vector<std::pair<FlowId, std::function<void(FlowId)>>> callbacks;

  while (last_time_ < t) {
    const sim::SimTime step_end = std::min(t, next_completion());
    const double dt = sim::to_seconds(step_end - last_time_);
    if (dt > 0.0) {
      for (auto& [id, flow] : flows_) {
        (void)id;
        if (std::isfinite(flow.remaining_bytes))
          flow.remaining_bytes = std::max(
              0.0,
              flow.remaining_bytes - bytes_from_bits(flow.rate_bits) * dt);
      }
    }
    last_time_ = step_end;

    // Retire flows whose volume drained.
    bool any_completed = false;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (std::isfinite(it->second.remaining_bytes) &&
          it->second.remaining_bytes <= kByteEps) {
        if (it->second.spec.on_complete)
          callbacks.emplace_back(it->first,
                                 std::move(it->second.spec.on_complete));
        it = flows_.erase(it);
        any_completed = true;
      } else {
        ++it;
      }
    }
    // Completed flows free capacity for the rest of the interval.
    if (any_completed) recompute_rates();
  }

  advancing_ = false;
  for (auto& [id, cb] : callbacks) cb(id);
}

sim::SimTime FlowNet::next_completion() const {
  sim::SimTime earliest = std::numeric_limits<sim::SimTime>::max();
  for (const auto& [id, flow] : flows_) {
    (void)id;
    if (!std::isfinite(flow.remaining_bytes) || flow.rate_bits <= 0.0)
      continue;
    const double secs = bits_from_bytes(flow.remaining_bytes) / flow.rate_bits;
    // Strictly in the future so each advance_to iteration makes progress
    // even when the remaining time rounds to zero microseconds.
    const sim::SimTime when =
        last_time_ + std::max<sim::SimDuration>(sim::from_seconds(secs), 1);
    earliest = std::min(earliest, when);
  }
  return earliest;
}

void FlowNet::recompute_rates() {
  std::vector<FairShareFlow> specs;
  specs.reserve(flows_.size());
  for (const auto& [id, flow] : flows_) {
    (void)id;
    specs.push_back(
        {flow.spec.resources, flow.spec.weight, flow.spec.cap_bits});
  }
  const std::vector<double> rates = max_min_fair_rates(resources_, specs);
  std::size_t i = 0;
  for (auto& [id, flow] : flows_) {
    (void)id;
    flow.rate_bits = std::isfinite(rates[i]) ? rates[i] : kHugeRate;
    ++i;
  }
  schedule_completion_tick();
}

void FlowNet::schedule_completion_tick() {
  if (completion_event_) {
    sim_.cancel(*completion_event_);
    completion_event_.reset();
  }
  const sim::SimTime earliest = next_completion();
  if (earliest != std::numeric_limits<sim::SimTime>::max()) {
    completion_event_ =
        sim_.schedule_at(std::max(earliest, sim_.now()), [this] {
          completion_event_.reset();
          sync();
          schedule_completion_tick();
        });
  }
}

}  // namespace flashflow::net
