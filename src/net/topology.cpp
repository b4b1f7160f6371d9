#include "net/topology.h"

#include <stdexcept>
#include <utility>

#include "net/units.h"

namespace flashflow::net {

Topology::Topology(PathModel paths) : paths_(std::move(paths)) {}

HostId Topology::add_host(Host host) {
  const HostId id = hosts_.size();
  hosts_.push_back(std::move(host));
  paths_.add_host();
  return id;
}

void Topology::reserve_hosts(std::size_t n) { hosts_.reserve(n); }

void Topology::set_host_tier(HostId id, int tier) {
  paths_.set_host_tier(id, tier);
}

const Host& Topology::host(HostId id) const {
  if (id >= hosts_.size()) throw std::out_of_range("Topology::host");
  return hosts_[id];
}

HostId Topology::find(const std::string& name) const {
  if (!name.empty())
    for (HostId id = 0; id < hosts_.size(); ++id)
      if (hosts_[id].name == name) return id;
  throw std::invalid_argument("Topology::find: no host named " + name);
}

PathCharacteristics Topology::path(HostId a, HostId b) const {
  check_ids(a, b);
  PathCharacteristics out;
  paths_.fill_paths(a, {&b, 1}, {&out, 1});
  return out;
}

void Topology::check_ids(HostId a, HostId b) const {
  if (a >= hosts_.size() || b >= hosts_.size())
    throw std::out_of_range("Topology: bad host id");
}

const std::vector<std::string>& table1_host_names() {
  static const std::vector<std::string> names = {"US-SW", "US-NW", "US-E",
                                                 "IN", "NL"};
  return names;
}

Topology make_table1_hosts() {
  // One tier per host, in add order below: the table is the upper
  // triangle of the hosts' path matrix. A host's own tier holds only the
  // host itself, so the diagonal (co-located) is never read.
  //
  // Table 1 RTTs to US-SW. Clean loss is near zero (iPerf runs reach close
  // to line rate); loaded loss is calibrated so the Appendix E.1 socket
  // sweep reproduces each host's peak location (IN peaks at s=160). The
  // inter-pair paths (not in Table 1) are synthesized from geography.
  constexpr PathCharacteristics kSelf{};
  constexpr PathCharacteristics kTable[] = {
      // US-SW to US-SW, US-NW, US-E, IN, NL
      kSelf, {0.040, 1.0e-6, 6.0e-5}, {0.062, 1.0e-6, 6.0e-5},
      {0.210, 2.0e-6, 1.6e-4}, {0.137, 1.0e-6, 1.0e-4},
      // US-NW to US-NW, US-E, IN, NL
      kSelf, {0.070, 1.0e-6, 6.0e-5}, {0.230, 2.0e-6, 1.7e-4},
      {0.150, 1.0e-6, 1.1e-4},
      // US-E to US-E, IN, NL
      kSelf, {0.200, 2.0e-6, 1.6e-4}, {0.090, 1.0e-6, 8.0e-5},
      // IN to IN, NL
      kSelf, {0.130, 2.0e-6, 1.0e-4},
      // NL to NL
      kSelf};
  Topology topo(PathModel(5, kTable));

  // NIC capacities are set so that saturating UDP measurements reproduce
  // Table 1's "BW (measured)" row: 954 / 946 / 941 / 1076 / 1611 Mbit/s.
  Host us_sw_h{.name = "US-SW", .nic_up_bits = mbit(954),
               .nic_down_bits = mbit(954), .cpu_cores = 8,
               .virtual_host = false, .datacenter = true,
               .kernel = KernelProfile::default_profile()};
  Host us_nw_h{.name = "US-NW", .nic_up_bits = mbit(946),
               .nic_down_bits = mbit(946), .cpu_cores = 8,
               .virtual_host = true, .datacenter = true,
               .kernel = KernelProfile::default_profile()};
  // Appendix B: US-NW's receive direction was highly variable
  // (TCP 176-787 Mbit/s, UDP 740-945 Mbit/s).
  us_nw_h.rx_var_tcp = 0.78;
  us_nw_h.rx_var_udp = 0.22;
  Host us_e_h{.name = "US-E", .nic_up_bits = mbit(941),
              .nic_down_bits = mbit(941), .cpu_cores = 12,
              .virtual_host = false, .datacenter = false,
              .kernel = KernelProfile::default_profile()};
  Host in_h{.name = "IN", .nic_up_bits = mbit(1076),
            .nic_down_bits = mbit(1076), .cpu_cores = 2,
            .virtual_host = true, .datacenter = true,
            .kernel = KernelProfile::default_profile()};
  in_h.rx_var_tcp = 0.17;
  Host nl_h{.name = "NL", .nic_up_bits = mbit(1611),
            .nic_down_bits = mbit(1611), .cpu_cores = 2,
            .virtual_host = true, .datacenter = true,
            .kernel = KernelProfile::default_profile()};

  topo.add_host(us_sw_h);
  topo.add_host(us_nw_h);
  topo.add_host(us_e_h);
  topo.add_host(in_h);
  topo.add_host(nl_h);
  return topo;
}

}  // namespace flashflow::net
