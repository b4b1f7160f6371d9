#include "net/flownet.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/units.h"

namespace flashflow::net {

namespace {
// A flow is done once less than one byte remains: sub-byte residues are
// rounding artifacts of the microsecond clock, and chasing them would
// step the net a microsecond at a time.
constexpr double kByteEps = 1.0;
}  // namespace

ResourceId FlowNet::add_resource(double capacity_bits) {
  resources_.push_back({capacity_bits});
  return resources_.size() - 1;
}

double FlowNet::resource_usage(ResourceId id) const {
  if (id >= resources_.size()) throw std::out_of_range("FlowNet resource");
  double used = 0.0;
  for (const Flow& flow : flows_)
    if (std::find(flow.resources.begin(), flow.resources.end(), id) !=
        flow.resources.end())
      used += flow.rate_bits;
  return used;
}

FlowId FlowNet::add_flow(std::vector<ResourceId> resources, double cap_bits,
                         double volume_bytes) {
  for (const ResourceId r : resources)
    if (r >= resources_.size())
      throw std::out_of_range("FlowNet::add_flow: bad resource id");
  if (!(volume_bytes >= 0.0))
    throw std::invalid_argument("FlowNet::add_flow: negative volume");
  const FlowId id = next_flow_id_++;
  flows_.push_back({id, std::move(resources), cap_bits, volume_bytes, 0.0});
  recompute_rates(last_time_);
  return id;
}

void FlowNet::remove_flow(FlowId id) {
  if (std::erase_if(flows_, [id](const Flow& f) { return f.id == id; }) > 0)
    recompute_rates(last_time_);
}

void FlowNet::advance_to(sim::SimTime t, std::vector<FlowId>& finished) {
  finished.clear();
  const auto drained = [](const Flow& f) {
    return f.remaining_bytes <= kByteEps;
  };
  while (last_time_ < t) {
    const sim::SimTime step_end = std::min(t, earliest_finish());
    const double dt = sim::to_seconds(step_end - last_time_);
    for (Flow& flow : flows_)
      flow.remaining_bytes = std::max(
          0.0, flow.remaining_bytes - bytes_from_bits(flow.rate_bits) * dt);
    last_time_ = step_end;
    // Drained flows free their capacity for the rest of the interval.
    for (const Flow& flow : flows_)
      if (drained(flow)) finished.push_back(flow.id);
    if (std::erase_if(flows_, drained) > 0) recompute_rates(t);
  }
  if (t >= due_) due_ = earliest_finish();
}

sim::SimTime FlowNet::earliest_finish() const {
  sim::SimTime earliest = std::numeric_limits<sim::SimTime>::max();
  for (const Flow& flow : flows_) {
    if (flow.rate_bits <= 0.0) continue;
    const double secs = bits_from_bytes(flow.remaining_bytes) / flow.rate_bits;
    // Strictly after the last advance, so each step of advance_to makes
    // progress even when the remaining time rounds to zero microseconds.
    earliest = std::min(
        earliest,
        last_time_ + std::max<sim::SimDuration>(sim::from_seconds(secs), 1));
  }
  return earliest;
}

void FlowNet::recompute_rates(sim::SimTime now) {
  std::vector<FairShareFlow> specs;
  specs.reserve(flows_.size());
  for (const Flow& flow : flows_)
    specs.push_back({.resources = flow.resources, .cap = flow.cap_bits});
  const std::vector<double> rates = max_min_fair_rates(resources_, specs);
  for (std::size_t i = 0; i < flows_.size(); ++i)
    flows_[i].rate_bits = rates[i];
  due_ = std::max(earliest_finish(), now);
}

}  // namespace flashflow::net
