// FlowNet: a continuous fluid-flow network simulation.
//
// Flows traverse capacitated resources (NIC directions, relay CPUs, token
// buckets, ...). Rates follow the weighted max-min fair allocation and stay
// constant between flow-set changes, so byte accrual is piecewise linear and
// exact. Finite-volume flows fire a completion callback at the precise time
// their volume drains; rates are recomputed whenever the flow set or a
// capacity changes.
//
// It runs the iPerf meshes (Tables 1/3 and the §4.2 team mesh) and the
// clients of the Shadow-style load-balancing simulation (Fig 9). The
// measurement slots solve their flows with FairShareSolver directly (see
// core/measurement.h).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "metrics/timeseries.h"
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
    /// Record a per-second byte series for this flow (measurement reports).
    bool record_per_second = false;
  };

  FlowId add_flow(FlowSpec spec);
  /// Removes a live flow. Its series remains queryable afterwards.
  void remove_flow(FlowId id);

  /// Per-second byte series of a live or retired flow (empty unless
  /// record_per_second was set at creation).
  const metrics::PerSecondSeries& series(FlowId id);

  /// Brings accrual up to the simulator's current time. Called implicitly
  /// by every mutation and query; exposed for tests.
  void sync();

 private:
  struct FlowState {
    FlowSpec spec;
    double rate_bits = 0.0;
    double remaining_bytes = std::numeric_limits<double>::infinity();
    metrics::PerSecondSeries series;
  };

  void advance_to(sim::SimTime t);
  void recompute_rates();
  void schedule_completion_tick();
  /// Accrues `rate` bits/s into a series between two times, splitting
  /// across one-second bins.
  static void accrue_series(metrics::PerSecondSeries& series,
                            sim::SimTime from, sim::SimTime to,
                            double rate_bits);

  sim::Simulator& sim_;
  std::vector<FairShareResource> resources_;
  std::map<FlowId, FlowState> flows_;     // ordered: deterministic iteration
  std::map<FlowId, FlowState> retired_;   // finished/removed flows
  FlowId next_flow_id_ = 1;
  sim::SimTime last_time_ = 0;
  std::optional<sim::EventId> completion_event_;
  bool advancing_ = false;
};

}  // namespace flashflow::net
