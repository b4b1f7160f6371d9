#include "net/topology.h"

#include <stdexcept>
#include <utility>

#include "net/units.h"

namespace flashflow::net {

Topology::Topology() : model_(std::make_unique<DensePathModel>()) {}

void Topology::use_path_model(std::unique_ptr<PathModel> model) {
  if (!model)
    throw std::invalid_argument("Topology::use_path_model: null model");
  model_ = std::move(model);
  model_->resize_hosts(hosts_.size());
}

HostId Topology::add_host(Host host) {
  const HostId id = hosts_.size();
  // emplace keeps the first id registered under a name, matching the
  // first-match semantics find() has always had.
  name_index_.emplace(host.name, id);
  hosts_.push_back(std::move(host));
  model_->resize_hosts(hosts_.size());
  return id;
}

void Topology::reserve_hosts(std::size_t n) {
  hosts_.reserve(n);
  name_index_.reserve(n);
  model_->reserve_hosts(n);
}

void Topology::set_path(HostId a, HostId b, double rtt_s, double loss_rate,
                        double loaded_loss_rate) {
  check_ids(a, b);
  if (rtt_s < 0.0 || loss_rate < 0.0 || loss_rate >= 1.0)
    throw std::invalid_argument("Topology::set_path: bad parameters");
  if (loaded_loss_rate < 0.0) loaded_loss_rate = loss_rate;
  auto* dense = dynamic_cast<DensePathModel*>(model_.get());
  if (!dense)
    throw std::logic_error(
        "Topology::set_path: requires the dense path model (tiered "
        "topologies describe paths through their tier table)");
  dense->set_path(a, b, rtt_s, loss_rate, loaded_loss_rate);
}

void Topology::set_host_tier(HostId id, int tier) {
  if (id >= hosts_.size()) throw std::out_of_range("Topology: bad host id");
  auto* tiered = dynamic_cast<TieredPathModel*>(model_.get());
  if (!tiered)
    throw std::logic_error(
        "Topology::set_host_tier: requires a tiered path model");
  tiered->set_host_tier(id, tier);
}

const Host& Topology::host(HostId id) const {
  if (id >= hosts_.size()) throw std::out_of_range("Topology::host");
  return hosts_[id];
}

HostId Topology::find(const std::string& name) const {
  const auto it = name_index_.find(name);
  if (it == name_index_.end())
    throw std::invalid_argument("Topology::find: no host named " + name);
  return it->second;
}

void Topology::fill_paths(HostId from, std::span<const HostId> to,
                          std::span<PathCharacteristics> out) const {
  model_->fill_paths(from, to, out);
}

PathCharacteristics Topology::path(HostId a, HostId b) const {
  check_ids(a, b);
  PathCharacteristics out;
  model_->fill_paths(a, {&b, 1}, {&out, 1});
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
  Topology topo;

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

  const HostId us_sw = topo.add_host(us_sw_h);
  const HostId us_nw = topo.add_host(us_nw_h);
  const HostId us_e = topo.add_host(us_e_h);
  const HostId in = topo.add_host(in_h);
  const HostId nl = topo.add_host(nl_h);

  // Table 1 RTTs to US-SW. Clean loss is near zero (iPerf runs reach close
  // to line rate); loaded loss is calibrated so the Appendix E.1 socket
  // sweep reproduces each host's peak location (IN peaks at s=160).
  topo.set_path(us_sw, us_nw, 0.040, 1.0e-6, 6.0e-5);
  topo.set_path(us_sw, us_e, 0.062, 1.0e-6, 6.0e-5);
  topo.set_path(us_sw, in, 0.210, 2.0e-6, 1.6e-4);
  topo.set_path(us_sw, nl, 0.137, 1.0e-6, 1.0e-4);

  // Inter-pair paths (not in Table 1): synthesized from geography.
  topo.set_path(us_nw, us_e, 0.070, 1.0e-6, 6.0e-5);
  topo.set_path(us_nw, in, 0.230, 2.0e-6, 1.7e-4);
  topo.set_path(us_nw, nl, 0.150, 1.0e-6, 1.1e-4);
  topo.set_path(us_e, in, 0.200, 2.0e-6, 1.6e-4);
  topo.set_path(us_e, nl, 0.090, 1.0e-6, 8.0e-5);
  topo.set_path(in, nl, 0.130, 2.0e-6, 1.0e-4);

  return topo;
}

}  // namespace flashflow::net
