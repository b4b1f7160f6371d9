// FlowNet: a continuous fluid-flow network simulation.
//
// Flows traverse capacitated resources (NIC directions, relay CPUs, token
// buckets, ...). Rates follow the weighted max-min fair allocation and stay
// constant between flow-set changes. Finite-volume flows fire a completion
// callback at the precise time their volume drains; rates are recomputed
// whenever the flow set changes.
//
// It runs the clients of the Shadow-style load-balancing simulation
// (Fig 9), whose transfers start, finish and time out while others run.
// Runs whose flows never change need no event loop: the iPerf runs and the
// §4.2 mesh solve their flows once (net/iperf.h), and the measurement
// slots solve theirs with FairShareSolver directly (core/measurement.h).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "net/fairshare.h"
#include "sim/simulator.h"

namespace flashflow::net {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

class FlowNet {
 public:
  explicit FlowNet(sim::Simulator& simulator);

  // --- resources ---
  /// Adds a capacitated resource; capacity in bits/s (<= 0: unconstrained).
  ResourceId add_resource(double capacity_bits);
  /// Currently allocated rate through a resource (bits/s).
  double resource_usage(ResourceId id);

  // --- flows ---
  struct FlowSpec {
    std::vector<ResourceId> resources;
    double weight = 1.0;  // relative fair-share weight (e.g. socket count)
    double cap_bits = std::numeric_limits<double>::infinity();
    /// Bytes to transfer; negative means unbounded (runs until removed).
    double volume_bytes = -1.0;
    /// Invoked (once) when a finite volume completes. The callback runs
    /// after rates have been recomputed and may add/remove flows.
    std::function<void(FlowId)> on_complete;
  };

  FlowId add_flow(FlowSpec spec);
  /// Removes a live flow; a completed or removed one is ignored.
  void remove_flow(FlowId id);

 private:
  struct FlowState {
    FlowSpec spec;
    double rate_bits = 0.0;
    double remaining_bytes = std::numeric_limits<double>::infinity();
  };

  /// Drains the flows' volumes up to the simulator's current time; every
  /// mutation and query calls it first.
  void sync();
  void advance_to(sim::SimTime t);
  /// The earliest completion among finite flows at their current rates;
  /// the largest SimTime when none is draining.
  sim::SimTime next_completion() const;
  void recompute_rates();
  void schedule_completion_tick();

  sim::Simulator& sim_;
  std::vector<FairShareResource> resources_;
  std::map<FlowId, FlowState> flows_;  // ordered: deterministic iteration
  FlowId next_flow_id_ = 1;
  sim::SimTime last_time_ = 0;
  std::optional<sim::EventId> completion_event_;
  bool advancing_ = false;
};

}  // namespace flashflow::net
