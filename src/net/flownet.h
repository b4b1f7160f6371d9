// FlowNet: a passive fluid-flow network.
//
// Flows of a finite volume traverse capacitated resources (Fig 9: the
// spare capacity of each relay on a circuit). Rates follow the max-min
// fair allocation over the live flows, in start order, and stay constant
// between changes to the flow set; every add, removal and finish re-solves
// them. The net keeps no clock: its caller advances it to a time, learns
// which flows drained on the way, and asks when the next one is due.
//
// It carries the benchmark clients of the Shadow-style load-balancing
// simulation (Fig 9, shadowsim/experiment.h), whose transfers start,
// finish and time out while others run. Runs whose flows never change
// solve them once: the iPerf runs and the §4.2 mesh (net/iperf.h), and
// the measurement slots with FairShareSolver (core/measurement.h).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/fairshare.h"
#include "sim/time.h"

namespace flashflow::net {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

class FlowNet {
 public:
  /// Adds a capacitated resource; capacity in bits/s (<= 0: unconstrained).
  ResourceId add_resource(double capacity_bits);
  /// The summed rate of the live flows through a resource (bits/s).
  double resource_usage(ResourceId id) const;

  /// Starts a flow of `volume_bytes` (>= 0) over `resources`, at most
  /// `cap_bits` fast, at the time the net was last advanced to.
  FlowId add_flow(std::vector<ResourceId> resources, double cap_bits,
                  double volume_bytes);
  /// Removes a live flow; a finished or removed one is ignored.
  void remove_flow(FlowId id);

  /// Drains the flows up to `t`, stepping through each finish on the way,
  /// and sets `finished` to the flows that drained, in start order. A `t`
  /// at or before the last advance changes nothing.
  void advance_to(sim::SimTime t, std::vector<FlowId>& finished);
  /// When the next flow is due to drain; the largest SimTime when none is
  /// moving. It is measured when the rates change and again when an
  /// advance reaches it, not at every advance: measured from a later,
  /// partly drained volume, the same finish can round to a neighbouring
  /// microsecond.
  sim::SimTime next_completion() const { return due_; }

 private:
  struct Flow {
    FlowId id = 0;
    std::vector<ResourceId> resources;
    double cap_bits = 0.0;
    double remaining_bytes = 0.0;
    double rate_bits = 0.0;
  };

  /// The earliest finish at the current rates, at least 1 µs after the
  /// last advance.
  sim::SimTime earliest_finish() const;
  /// Re-solves the rates and measures the due time, no earlier than `now`.
  void recompute_rates(sim::SimTime now);

  std::vector<FairShareResource> resources_;
  std::vector<Flow> flows_;  // in start order
  FlowId next_flow_id_ = 1;
  sim::SimTime last_time_ = 0;
  sim::SimTime due_ = std::numeric_limits<sim::SimTime>::max();
};

}  // namespace flashflow::net
