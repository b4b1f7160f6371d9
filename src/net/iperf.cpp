#include "net/iperf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "metrics/stats.h"
#include "net/fairshare.h"
#include "net/tcp_model.h"

namespace flashflow::net {

double IperfReport::median_bits() const {
  if (per_second_bits.empty()) return 0.0;
  return metrics::median(metrics::as_span(per_second_bits));
}

namespace {

/// The up and down NICs of `hosts`, interleaved: hosts[k]'s up NIC is
/// resource 2k and its down NIC 2k + 1.
std::vector<FairShareResource> nics(const Topology& topo,
                                    const std::vector<HostId>& hosts) {
  std::vector<FairShareResource> resources;
  resources.reserve(2 * hosts.size());
  for (const HostId h : hosts) {
    resources.push_back({topo.host(h).nic_up_bits});
    resources.push_back({topo.host(h).nic_down_bits});
  }
  return resources;
}

/// Every host of `topo`, in id order, so host h's NICs are 2h and 2h + 1.
std::vector<HostId> every_host(const Topology& topo) {
  std::vector<HostId> hosts(topo.host_count());
  for (HostId h = 0; h < hosts.size(); ++h) hosts[h] = h;
  return hosts;
}

/// Each flow's per-second sample over a `seconds`-long run at its fair
/// rate: the bits delivered divided by the run's length, which can differ
/// from the rate in the last bit. 0 for a flow that delivered nothing.
/// Throws std::invalid_argument for a flow that no NIC or cap limits.
std::vector<double> samples(const std::vector<FairShareResource>& resources,
                            const std::vector<FairShareFlow>& flows,
                            int seconds) {
  std::vector<double> out = max_min_fair_rates(resources, flows);
  const double d = seconds;
  for (double& rate : out) {
    if (!std::isfinite(rate))
      throw std::invalid_argument(
          "IperfRunner: no NIC or cap limits a flow's rate");
    rate = rate * d / d;
  }
  return out;
}

/// `seconds` samples of `bits`, each scaled by its own receive-direction
/// variability factor drawn from [1 - var, 1].
IperfReport with_rx_variability(double bits, int seconds, double var,
                                sim::Rng& rng) {
  IperfReport report;
  for (int s = 0; s < seconds; ++s)
    report.per_second_bits.push_back(bits * rng.uniform(1.0 - var, 1.0));
  return report;
}

/// A one-direction run of one flow capped at `cap_bits`.
IperfReport one_way(const Topology& topo, HostId sender, HostId receiver,
                    int seconds, double cap_bits, double rx_var,
                    sim::Rng& rng) {
  const double bits = samples(
      nics(topo, every_host(topo)),
      {{.resources = {2 * sender, 2 * receiver + 1}, .cap = cap_bits}},
      seconds)[0];
  if (!(bits > 0.0)) return {};
  return with_rx_variability(bits, seconds, rx_var, rng);
}

}  // namespace

IperfRunner::IperfRunner(const Topology& topo, std::uint64_t seed)
    : topo_(topo), rng_(seed) {}

IperfReport IperfRunner::run_tcp(HostId sender, HostId receiver,
                                 int seconds) {
  const double socket_cap = tcp_socket_throughput(
      topo_.host(sender).kernel, topo_.rtt(sender, receiver),
      topo_.loss(sender, receiver));
  return one_way(topo_, sender, receiver, seconds, socket_cap,
                 topo_.host(receiver).rx_var_tcp, rng_);
}

IperfReport IperfRunner::run_udp(HostId sender, HostId receiver,
                                 int seconds) {
  return one_way(topo_, sender, receiver, seconds,
                 std::numeric_limits<double>::infinity(),
                 topo_.host(receiver).rx_var_udp, rng_);
}

IperfReport IperfRunner::run_bidirectional(HostId a, HostId b, int seconds,
                                           bool udp) {
  const IperfReport ab =
      udp ? run_udp(a, b, seconds) : run_tcp(a, b, seconds);
  const IperfReport ba =
      udp ? run_udp(b, a, seconds) : run_tcp(b, a, seconds);
  const std::size_t n =
      std::min(ab.per_second_bits.size(), ba.per_second_bits.size());
  IperfReport out;
  out.per_second_bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.per_second_bits.push_back(
        std::min(ab.per_second_bits[i], ba.per_second_bits[i]));
  return out;
}

IperfReport IperfRunner::run_saturate_udp(HostId receiver, int seconds) {
  std::vector<FairShareFlow> flows;
  for (HostId h = 0; h < topo_.host_count(); ++h)
    if (h != receiver)
      flows.push_back({.resources = {2 * h, 2 * receiver + 1}});
  double sum = 0.0;
  for (const double sample :
       samples(nics(topo_, every_host(topo_)), flows, seconds))
    sum += sample;
  if (!(sum > 0.0)) return {};
  // Saturating many-to-one runs were stable even on flaky hosts (Table 1's
  // measured row vs Table 3's pairwise ranges), so only baseline noise.
  return with_rx_variability(sum, seconds, 0.01, rng_);
}

std::vector<IperfReport> IperfRunner::run_mesh_udp(
    const std::vector<HostId>& hosts, int seconds) {
  const std::size_t n = hosts.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (hosts[i] == hosts[j])
        throw std::invalid_argument("IperfRunner::run_mesh_udp: host " +
                                    topo_.host(hosts[i]).name +
                                    " is listed twice");
  std::vector<FairShareFlow> flows;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) flows.push_back({.resources = {2 * i, 2 * j + 1}});
  const std::vector<double> flow_bits =
      samples(nics(topo_, hosts), flows, seconds);
  // Per-second totals each host sent and received, summed in host order.
  std::vector<double> sent(n, 0.0), received(n, 0.0);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        sent[i] += flow_bits[k];
        received[j] += flow_bits[k];
        ++k;
      }

  std::vector<IperfReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    reports.push_back(with_rx_variability(std::min(sent[i], received[i]),
                                          seconds,
                                          topo_.host(hosts[i]).rx_var_udp,
                                          rng_));
  return reports;
}

}  // namespace flashflow::net
