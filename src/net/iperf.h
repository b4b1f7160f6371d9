// iPerf-like network measurement app.
//
// Reproduces the paper's host-capacity estimation methodology (§6.1 and
// Appendix B): pairwise bidirectional TCP/UDP runs summarized as the median
// of per-second min(sent, received), and the many-to-one saturating UDP run
// whose median per-second sum is the "BW (measured)" row of Table 1.
// FlashFlow's team uses the concurrent UDP mesh to estimate measurer
// capacity (§4.2 "Measuring Measurers").
//
// A run's flows start together and never change, so one weighted max-min
// fair solve over the hosts' NICs (net/fairshare.h) fixes every rate for
// the whole run.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "sim/random.h"

namespace flashflow::net {

struct IperfReport {
  /// Summarized per-second throughput samples, bits/s.
  std::vector<double> per_second_bits;
  /// Median of the per-second samples; 0 when empty.
  double median_bits() const;
};

/// Runs iPerf-style measurements over a Topology. A flow's per-second
/// sample is the bits it delivered over the run divided by the run's
/// length (none if it delivered nothing); the RNG seed makes the injected
/// receive-direction variability reproducible. A run refuses a flow that
/// no NIC (capacity <= 0 is unconstrained) or TCP window cap limits.
class IperfRunner {
 public:
  IperfRunner(const Topology& topo, std::uint64_t seed);

  /// One-direction TCP run over one socket (window-limited by the TCP
  /// model).
  IperfReport run_tcp(HostId sender, HostId receiver, int seconds);
  /// One-direction UDP run (NIC-limited; no congestion-window cap).
  IperfReport run_udp(HostId sender, HostId receiver, int seconds);

  /// Bidirectional run; per-second samples are min(sent, received) as in
  /// Appendix B. `udp` selects the transport.
  IperfReport run_bidirectional(HostId a, HostId b, int seconds, bool udp);

  /// All other hosts send UDP to `receiver` concurrently; samples are the
  /// per-second sums (Table 1 "BW (measured)" methodology).
  IperfReport run_saturate_udp(HostId receiver, int seconds);

  /// Every host sends UDP to every other host concurrently (§4.2); one
  /// report per host, in `hosts` order, of its per-second
  /// min(sent, received). Each entry brings its own NICs, so a host listed
  /// twice throws std::invalid_argument.
  std::vector<IperfReport> run_mesh_udp(const std::vector<HostId>& hosts,
                                        int seconds);

 private:
  const Topology& topo_;
  sim::Rng rng_;
};

}  // namespace flashflow::net
