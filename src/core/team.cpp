#include "core/team.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "metrics/stats.h"
#include "net/flownet.h"
#include "sim/random.h"
#include "sim/simulator.h"

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
  // Concurrent full-mesh bidirectional UDP for 60 seconds on a fluid net.
  sim::Simulator simu;
  net::FlowNet netw(simu);
  std::vector<net::ResourceId> up, down;
  for (const auto& m : measurers_) {
    up.push_back(netw.add_resource(topo_.host(m.host).nic_up_bits));
    down.push_back(netw.add_resource(topo_.host(m.host).nic_down_bits));
  }
  // flows[i][j]: measurer i sending to measurer j.
  std::vector<std::vector<net::FlowId>> flows(measurers_.size());
  for (std::size_t i = 0; i < measurers_.size(); ++i) {
    for (std::size_t j = 0; j < measurers_.size(); ++j) {
      if (i == j) {
        flows[i].push_back(0);
        continue;
      }
      net::FlowNet::FlowSpec spec;
      spec.resources = {up[i], down[j]};
      spec.record_per_second = true;
      flows[i].push_back(netw.add_flow(std::move(spec)));
    }
  }
  simu.run_until(60 * sim::kSecond);
  netw.sync();

  sim::Rng rng(seed);
  for (std::size_t i = 0; i < measurers_.size(); ++i) {
    // Per-second totals sent by i and received by i.
    std::vector<double> sent(60, 0.0), received(60, 0.0);
    for (std::size_t j = 0; j < measurers_.size(); ++j) {
      if (i == j) continue;
      const auto out_bins = netw.series(flows[i][j]).bins_bits_per_second();
      for (std::size_t s = 0; s < out_bins.size() && s < 60; ++s)
        sent[s] += out_bins[s];
      const auto in_bins = netw.series(flows[j][i]).bins_bits_per_second();
      for (std::size_t s = 0; s < in_bins.size() && s < 60; ++s)
        received[s] += in_bins[s];
    }
    std::vector<double> per_second(60);
    for (std::size_t s = 0; s < 60; ++s) {
      per_second[s] = std::min(sent[s], received[s]) *
                      rng.uniform(1.0 - topo_.host(measurers_[i].host)
                                            .rx_var_udp,
                                  1.0);
    }
    measurers_[i].capacity_bits =
        metrics::median(metrics::as_span(per_second));
  }
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
