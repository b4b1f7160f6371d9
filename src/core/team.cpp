#include "core/team.h"

#include <algorithm>
#include <stdexcept>

#include "net/iperf.h"

namespace flashflow::core {

Team::Team(const net::Topology& topo, std::vector<net::HostId> hosts)
    : topo_(topo) {
  if (hosts.empty()) throw std::invalid_argument("Team: no hosts");
  measurers_.reserve(hosts.size());
  for (const net::HostId h : hosts) measurers_.push_back({h, 0.0});
}

void Team::measure_measurers(std::uint64_t seed) {
  // A team of one has no mesh peers; fall back to its NIC capacity (a
  // self-test against a reflector would measure the same bound).
  if (measurers_.size() == 1) {
    const auto& host = topo_.host(measurers_[0].host);
    measurers_[0].capacity_bits =
        std::min(host.nic_up_bits, host.nic_down_bits);
    return;
  }
  // Concurrent full-mesh bidirectional UDP for 60 seconds.
  std::vector<net::HostId> hosts;
  for (const auto& m : measurers_) hosts.push_back(m.host);
  const std::vector<net::IperfReport> reports =
      net::IperfRunner(topo_, seed).run_mesh_udp(hosts, 60);
  for (std::size_t i = 0; i < measurers_.size(); ++i)
    measurers_[i].capacity_bits = reports[i].median_bits();
}

void Team::set_capacity(std::size_t index, double capacity_bits) {
  if (index >= measurers_.size())
    throw std::out_of_range("Team::set_capacity");
  measurers_[index].capacity_bits = capacity_bits;
}

std::vector<double> Team::capacities() const {
  std::vector<double> out;
  out.reserve(measurers_.size());
  for (const auto& m : measurers_) out.push_back(m.capacity_bits);
  return out;
}

std::vector<int> Team::cores() const {
  std::vector<int> out;
  out.reserve(measurers_.size());
  for (const auto& m : measurers_)
    out.push_back(topo_.host(m.host).cpu_cores);
  return out;
}

}  // namespace flashflow::core
