#include "net/iperf.h"

#include <algorithm>
#include <limits>

#include "metrics/stats.h"
#include "net/flownet.h"
#include "net/tcp_model.h"
#include "net/units.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace flashflow::net {

double IperfReport::median_bits() const {
  if (per_second_bits.empty()) return 0.0;
  return metrics::median(metrics::as_span(per_second_bits));
}

namespace {

/// Builds per-host up/down NIC resources on a fresh FlowNet.
struct NicResources {
  std::vector<ResourceId> up;
  std::vector<ResourceId> down;
};

NicResources make_nics(FlowNet& netw, const Topology& topo) {
  NicResources nics;
  for (HostId h = 0; h < topo.host_count(); ++h) {
    nics.up.push_back(netw.add_resource(topo.host(h).nic_up_bits));
    nics.down.push_back(netw.add_resource(topo.host(h).nic_down_bits));
  }
  return nics;
}

/// Applies per-second receive-direction variability: each second's sample is
/// scaled by a factor drawn from [1 - var, 1].
std::vector<double> apply_rx_variability(std::vector<double> samples,
                                         double var, sim::Rng& rng) {
  for (double& s : samples) s *= rng.uniform(1.0 - var, 1.0);
  return samples;
}

}  // namespace

IperfRunner::IperfRunner(const Topology& topo, std::uint64_t seed)
    : topo_(topo), rng_(seed) {}

IperfReport IperfRunner::run_tcp(HostId sender, HostId receiver,
                                 double duration_s, int streams) {
  sim::Simulator simu;
  FlowNet netw(simu);
  const NicResources nics = make_nics(netw, topo_);

  const double socket_cap = tcp_socket_throughput(
      topo_.host(sender).kernel, topo_.rtt(sender, receiver),
      topo_.loss(sender, receiver));
  FlowNet::FlowSpec spec;
  spec.resources = {nics.up[sender], nics.down[receiver]};
  spec.weight = static_cast<double>(streams);
  spec.cap_bits = socket_cap * streams;
  spec.record_per_second = true;
  const FlowId flow = netw.add_flow(std::move(spec));

  simu.run_until(sim::from_seconds(duration_s));
  netw.sync();
  auto samples = netw.series(flow).bins_bits_per_second();
  return {apply_rx_variability(std::move(samples),
                               topo_.host(receiver).rx_var_tcp, rng_)};
}

IperfReport IperfRunner::run_udp(HostId sender, HostId receiver,
                                 double duration_s) {
  sim::Simulator simu;
  FlowNet netw(simu);
  const NicResources nics = make_nics(netw, topo_);

  FlowNet::FlowSpec spec;
  spec.resources = {nics.up[sender], nics.down[receiver]};
  spec.record_per_second = true;
  const FlowId flow = netw.add_flow(std::move(spec));

  simu.run_until(sim::from_seconds(duration_s));
  netw.sync();
  auto samples = netw.series(flow).bins_bits_per_second();
  return {apply_rx_variability(std::move(samples),
                               topo_.host(receiver).rx_var_udp, rng_)};
}

IperfReport IperfRunner::run_bidirectional(HostId a, HostId b,
                                           double duration_s, bool udp) {
  const IperfReport ab =
      udp ? run_udp(a, b, duration_s) : run_tcp(a, b, duration_s);
  const IperfReport ba =
      udp ? run_udp(b, a, duration_s) : run_tcp(b, a, duration_s);
  const std::size_t n =
      std::min(ab.per_second_bits.size(), ba.per_second_bits.size());
  IperfReport out;
  out.per_second_bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.per_second_bits.push_back(
        std::min(ab.per_second_bits[i], ba.per_second_bits[i]));
  return out;
}

IperfReport IperfRunner::run_saturate_udp(HostId receiver, double duration_s) {
  sim::Simulator simu;
  FlowNet netw(simu);
  const NicResources nics = make_nics(netw, topo_);

  std::vector<FlowId> flows;
  for (HostId h = 0; h < topo_.host_count(); ++h) {
    if (h == receiver) continue;
    FlowNet::FlowSpec spec;
    spec.resources = {nics.up[h], nics.down[receiver]};
    spec.record_per_second = true;
    flows.push_back(netw.add_flow(std::move(spec)));
  }

  simu.run_until(sim::from_seconds(duration_s));
  netw.sync();

  std::vector<double> sums;
  for (const FlowId f : flows) {
    const auto bins = netw.series(f).bins_bits_per_second();
    if (sums.size() < bins.size()) sums.resize(bins.size(), 0.0);
    for (std::size_t i = 0; i < bins.size(); ++i) sums[i] += bins[i];
  }
  // Saturating many-to-one runs were stable even on flaky hosts (Table 1's
  // measured row vs Table 3's pairwise ranges), so only baseline noise.
  return {apply_rx_variability(std::move(sums), 0.01, rng_)};
}

}  // namespace flashflow::net
