// Measurement teams and measurer-capacity estimation (§4 "Setup", §4.2
// "Measuring Measurers").
//
// A team is a set of measurer hosts whose summed capacity must be at least
// f times the largest relay capacity. Measurer capacities are estimated
// with a concurrent bidirectional UDP iPerf mesh
// (net::IperfRunner::run_mesh_udp): every measurer exchanges traffic with
// every other measurer for 60 seconds, and the estimate is the median
// per-second min(sent, received). Only a lower bound is needed — an
// underestimate slows the schedule but cannot bias relay estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace flashflow::core {

struct Measurer {
  net::HostId host = 0;
  double capacity_bits = 0;  // estimated via the iPerf mesh
};

class Team {
 public:
  Team(const net::Topology& topo, std::vector<net::HostId> hosts);

  /// Runs the 60-second concurrent bidirectional UDP mesh and stores
  /// per-measurer capacity estimates. A team of one has no peers and takes
  /// its NIC capacity instead.
  void measure_measurers(std::uint64_t seed);

  /// Overrides a measurer's capacity (lab configs with known limits).
  void set_capacity(std::size_t index, double capacity_bits);

  const std::vector<Measurer>& measurers() const { return measurers_; }
  std::vector<double> capacities() const;
  std::vector<int> cores() const;

 private:
  const net::Topology& topo_;
  std::vector<Measurer> measurers_;
};

}  // namespace flashflow::core
