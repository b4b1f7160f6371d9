// Host and path model for Internet experiments.
//
// A Topology is a list of hosts, addressed by id, with NIC capacities plus
// path characteristics (RTT and loss rate) answered by its
// net::PathModel: each host sits on a tier, and a tier x tier table holds
// the paths (see net/path_model.h). Hosts a scenario names (measurers,
// Table 1 vantage points) carry a name for find(); relay hosts are
// addressed by id alone and stay unnamed. The paper's Table 1 vantage
// points are provided as a factory so every Internet experiment runs on
// the same configuration.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "net/path_model.h"
#include "net/tcp_model.h"

namespace flashflow::net {

struct Host {
  std::string name{};  // empty: never found by name
  double nic_up_bits = 0;    // upstream NIC capacity, bits/s
  double nic_down_bits = 0;  // downstream NIC capacity, bits/s
  int cpu_cores = 1;
  bool virtual_host = false;
  bool datacenter = true;
  KernelProfile kernel;  // socket buffer configuration
  // Receive-direction throughput variability observed in Appendix B
  // (US-NW's receive path was highly variable). Each per-second iPerf
  // sample is scaled by a factor drawn uniformly from [1 - var, 1].
  double rx_var_tcp = 0.05;
  double rx_var_udp = 0.01;
};

class Topology {
 public:
  /// An empty topology whose paths `paths` resolves.
  explicit Topology(PathModel paths);

  /// Adds a host on tier (id % tiers); returns its id.
  HostId add_host(Host host);

  /// Presizes the host list for `n` hosts.
  void reserve_hosts(std::size_t n);

  /// Moves a host to another tier (throws std::out_of_range on a bad id,
  /// std::invalid_argument on a bad tier).
  void set_host_tier(HostId id, int tier);

  std::size_t host_count() const { return hosts_.size(); }
  const Host& host(HostId id) const;
  /// Finds a host id by name (first added wins on duplicates) with a scan
  /// of the hosts; an unnamed host never matches. Throws
  /// std::invalid_argument if no host has the name, "" included.
  HostId find(const std::string& name) const;

  /// One path's RTT and clean loss (a one-entry fill_paths); throws
  /// std::out_of_range on a bad id.
  double rtt(HostId a, HostId b) const { return path(a, b).rtt_s; }
  double loss(HostId a, HostId b) const { return path(a, b).loss; }

  /// Bulk path resolution for the slot hot path: all of `from`'s paths to
  /// `to` in one call. out.size() must equal to.size(); ids must be valid.
  void fill_paths(HostId from, std::span<const HostId> to,
                  std::span<PathCharacteristics> out) const {
    paths_.fill_paths(from, to, out);
  }

 private:
  void check_ids(HostId a, HostId b) const;
  PathCharacteristics path(HostId a, HostId b) const;

  std::vector<Host> hosts_;
  PathModel paths_;
};

/// Builds the paper's Table 1 vantage points: US-SW (Fremont, CA),
/// US-NW (Santa Rosa, CA), US-E (Washington, DC), IN (Bangalore),
/// NL (Amsterdam), one tier each. NIC capacities reflect the paper's
/// measured values; the RTT column is Table 1's RTT-to-US-SW with
/// synthesized inter-pair values; loss rates grow with RTT, calibrated so
/// the Appendix E.1 socket sweep reproduces each host's peak location (IN
/// peaks at s=160).
Topology make_table1_hosts();

/// Names of the five Table 1 hosts in paper order.
const std::vector<std::string>& table1_host_names();

}  // namespace flashflow::net
