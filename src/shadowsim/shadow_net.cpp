#include "shadowsim/shadow_net.h"

#include <algorithm>

#include "net/units.h"

namespace flashflow::shadowsim {

double region_rtt(Region a, Region b) {
  // Symmetric city-level RTT matrix (seconds), loosely following Shadow's
  // Internet map medians.
  static constexpr double kRtt[kRegionCount][kRegionCount] = {
      //        NaE     NaW     EU      AS
      /*NaE*/ {0.020, 0.065, 0.090, 0.200},
      /*NaW*/ {0.065, 0.020, 0.150, 0.160},
      /*EU */ {0.090, 0.150, 0.025, 0.180},
      /*AS */ {0.200, 0.160, 0.180, 0.030},
  };
  return kRtt[static_cast<int>(a)][static_cast<int>(b)];
}

ShadowNet make_shadow_net(const ShadowNetParams& params, std::uint64_t seed) {
  sim::Rng rng(seed);
  ShadowNet net;
  net.relays.reserve(static_cast<std::size_t>(params.relays));
  // Region mix roughly matching Tor: half Europe, a third North America.
  const std::vector<double> region_weights = {0.22, 0.12, 0.54, 0.12};

  for (int i = 0; i < params.relays; ++i) {
    ShadowRelay r;
    r.fingerprint = "shadow-relay-" + std::to_string(i);
    r.capacity_bits =
        std::clamp(rng.log_normal(params.capacity_mu, params.capacity_sigma),
                   params.min_capacity_bits, params.max_capacity_bits);
    r.region = static_cast<Region>(rng.weighted_index(region_weights));
    r.advertised_bits =
        r.capacity_bits *
        std::clamp(rng.normal(params.advertised_mean, params.advertised_sd),
                   0.15, 1.0);
    r.utilization = std::clamp(rng.normal(0.45, 0.15), 0.05, 0.9);
    r.contention = std::clamp(
        rng.normal(params.contention_mean, params.contention_sd), 0.5, 1.0);
    net.total_capacity_bits += r.capacity_bits;
    net.relays.push_back(std::move(r));
  }
  return net;
}

net::Topology shadow_topology(const ShadowNet& net) {
  // Regions map 1:1 onto path tiers: the tier table is the upper
  // triangle of the region_rtt matrix, with modest loaded loss on the
  // shared simulated internet.
  std::vector<net::PathCharacteristics> table;
  for (int a = 0; a < kRegionCount; ++a)
    for (int b = a; b < kRegionCount; ++b)
      table.push_back({.rtt_s = region_rtt(static_cast<Region>(a),
                                           static_cast<Region>(b)),
                       .loss = 1.0e-6,
                       .loaded_loss = 5.0e-5});
  net::Topology topo(net::PathModel(kRegionCount, table));
  topo.reserve_hosts(3 + net.relays.size());
  // Three 1 Gbit/s measurers (§7), placed in distinct regions.
  const std::array<Region, 3> measurer_regions = {
      Region::kNaEast, Region::kEurope, Region::kNaWest};
  std::vector<net::HostId> measurers;
  for (int i = 0; i < 3; ++i) {
    measurers.push_back(topo.add_host(
        {.name = "measurer-" + std::to_string(i),
         .nic_up_bits = net::gbit(1), .nic_down_bits = net::gbit(1),
         .cpu_cores = 4, .virtual_host = false, .datacenter = true,
         .kernel = net::KernelProfile::default_profile()}));
  }
  std::vector<net::HostId> relay_hosts;
  for (const auto& relay : net.relays) {
    relay_hosts.push_back(topo.add_host(
        {.nic_up_bits = relay.capacity_bits * 1.2,
         .nic_down_bits = relay.capacity_bits * 1.2, .cpu_cores = 2,
         .virtual_host = false, .datacenter = true,
         .kernel = net::KernelProfile::default_profile()}));
  }

  for (std::size_t i = 0; i < measurers.size(); ++i)
    topo.set_host_tier(measurers[i],
                       static_cast<int>(measurer_regions[i]));
  for (std::size_t i = 0; i < net.relays.size(); ++i)
    topo.set_host_tier(relay_hosts[i],
                       static_cast<int>(net.relays[i].region));
  return topo;
}

}  // namespace flashflow::shadowsim
