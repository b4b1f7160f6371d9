#include "shadowsim/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/bwauth.h"
#include "core/params.h"
#include "metrics/error_metrics.h"
#include "net/flownet.h"
#include "net/units.h"
#include "sim/simulator.h"
#include "torflow/torflow.h"

namespace flashflow::shadowsim {

namespace {

/// Builds FlashFlow RelayTargets from the shadow network. The relay CPU
/// model is sized so that a 160-socket measurement can drive
/// capacity * contention through the relay — the contention factor models
/// Shadow's shared simulated internet (Fig 8a's error source).
std::vector<core::RelayTarget> make_targets(const ShadowNet& net,
                                            const core::Params& params) {
  std::vector<core::RelayTarget> targets;
  targets.reserve(net.relays.size());
  for (std::size_t i = 0; i < net.relays.size(); ++i) {
    const auto& r = net.relays[i];
    core::RelayTarget t;
    t.model.name = r.fingerprint;
    t.model.nic_up_bits = r.capacity_bits * 1.2;
    t.model.nic_down_bits = r.capacity_bits * 1.2;
    const double reachable = r.capacity_bits * r.contention;
    t.model.cpu.base_bits =
        reachable * (1.0 + t.model.cpu.per_socket_overhead * params.sockets);
    t.model.background_demand_bits = r.capacity_bits * r.utilization;
    t.host = 3 + i;  // shadow_topology: measurers first, then relays
    t.previous_estimate_bits = r.advertised_bits;  // start from §3 estimate
    targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<double> capacities_of(const ShadowNet& net) {
  std::vector<double> caps;
  caps.reserve(net.relays.size());
  for (const auto& r : net.relays) caps.push_back(r.capacity_bits);
  return caps;
}

std::vector<double> weights_of(const tor::BandwidthFile& file) {
  std::vector<double> w;
  w.reserve(file.size());
  for (const auto& e : file) w.push_back(e.weight);
  return w;
}

}  // namespace

MeasurementComparison run_measurement_comparison(const ShadowNet& net,
                                                 std::uint64_t seed) {
  MeasurementComparison out;
  const net::Topology topo = shadow_topology(net);
  core::Params params;

  // FlashFlow: 3 x 1 Gbit/s measurers (§7).
  core::Team team(topo, {0, 1, 2});
  for (std::size_t i = 0; i < 3; ++i) team.set_capacity(i, net::gbit(1));
  core::BWAuth bwauth(topo, params, std::move(team), net::mbit(51), seed);
  const auto targets = make_targets(net, params);
  out.flashflow_file = bwauth.measure_network(targets);

  // TorFlow baseline on the same relays.
  std::vector<torflow::TorFlowRelay> tf_relays;
  tf_relays.reserve(net.relays.size());
  for (const auto& r : net.relays)
    tf_relays.push_back(
        {r.fingerprint, r.capacity_bits, r.advertised_bits, r.utilization});
  torflow::TorFlow torflow({}, seed ^ 0x70F);
  out.torflow_file = torflow.scan(tf_relays);

  // Error metrics against ground truth.
  const auto caps = capacities_of(net);
  std::vector<double> ff_estimates;
  for (const auto& e : out.flashflow_file)
    ff_estimates.push_back(e.capacity_bits);

  for (std::size_t i = 0; i < caps.size(); ++i)
    out.ff_capacity_error.push_back(
        std::abs(1.0 - ff_estimates[i] / caps[i]));
  out.ff_network_capacity_error =
      std::abs(metrics::network_capacity_error(ff_estimates, caps));

  const auto cap_norm = metrics::normalize(caps);
  const auto ff_w = metrics::normalize(weights_of(out.flashflow_file));
  const auto tf_w = metrics::normalize(weights_of(out.torflow_file));
  for (std::size_t i = 0; i < caps.size(); ++i) {
    out.ff_relay_weight_error.push_back(ff_w[i] / cap_norm[i]);
    out.tf_relay_weight_error.push_back(tf_w[i] / cap_norm[i]);
  }
  out.ff_network_weight_error = metrics::network_weight_error(ff_w, cap_norm);
  out.tf_network_weight_error = metrics::network_weight_error(tf_w, cap_norm);
  return out;
}

namespace {

/// Drives one benchmark client's sequential transfer loop on the fluid net.
class BenchClient {
 public:
  BenchClient(sim::Simulator& simu, net::FlowNet& netw,
              const std::vector<net::ResourceId>& relay_resources,
              const std::vector<double>& norm_weights,
              const std::vector<double>& rho, const ShadowNet& net,
              const PerfConfig& config, trafficgen::BenchmarkResults& results,
              sim::Rng rng)
      : simu_(simu), netw_(netw), relay_resources_(relay_resources),
        weights_(norm_weights), rho_(rho), net_(net), config_(config),
        results_(results), rng_(std::move(rng)),
        region_(static_cast<Region>(rng_.uniform_int(0, kRegionCount - 1))) {}

  void start() {
    // Desynchronize clients.
    simu_.schedule_in(sim::from_seconds(rng_.uniform(0.0, 30.0)),
                      [this] { begin_transfer(); });
  }

 private:
  // Per-transfer state shared by the completion callback and the timeout
  // event; `done` guards against the two racing (a timeout firing after a
  // completion, or vice versa).
  struct Transfer {
    net::FlowId flow = 0;
    sim::EventId timeout_event = 0;
    bool done = false;
    trafficgen::TransferRecord record;
    std::vector<net::ResourceId> resources;
  };

  void begin_transfer() {
    using trafficgen::TransferSize;
    const auto size = static_cast<TransferSize>(next_size_);
    next_size_ = (next_size_ + 1) % 3;

    // Weighted 3-hop path.
    std::vector<double> w = weights_;
    std::array<std::size_t, 3> path{};
    for (auto& hop : path) {
      hop = rng_.weighted_index(w);
      w[hop] = 0.0;
    }

    // TTFB: circuit latency plus congestion queueing at each hop.
    const double rtt_sum =
        region_rtt(region_, net_.relays[path[0]].region) +
        region_rtt(net_.relays[path[0]].region,
                   net_.relays[path[1]].region) +
        region_rtt(net_.relays[path[1]].region,
                   net_.relays[path[2]].region) +
        region_rtt(net_.relays[path[2]].region, Region::kNaEast);
    double queue_delay = 0.0;
    for (const auto hop : path) {
      const double rho = rho_[hop];
      queue_delay += std::min(0.05 * rho / std::max(1.0 - rho, 0.005), 10.0);
    }

    auto transfer = std::make_shared<Transfer>();
    transfer->record.size = size;
    transfer->record.start = simu_.now();
    transfer->record.ttfb_s = 2.2 * rtt_sum + queue_delay;
    transfer->resources = {relay_resources_[path[0]],
                           relay_resources_[path[1]],
                           relay_resources_[path[2]]};

    // The timeout clock starts at the request, covering circuit setup and
    // queueing (TTFB) as well as the download itself.
    const auto index = static_cast<int>(size);
    const double limit = trafficgen::kTransferTimeoutS[index];
    if (transfer->record.ttfb_s >= limit) {
      transfer->record.ttlb_s = limit;
      transfer->record.timed_out = true;
      finish(transfer->record);
      return;
    }

    // Bytes begin flowing once the first byte arrives.
    simu_.schedule_in(
        sim::from_seconds(transfer->record.ttfb_s),
        [this, transfer, index] {
          if (transfer->done) return;
          net::FlowNet::FlowSpec spec;
          spec.resources = transfer->resources;
          spec.cap_bits = config_.client_cap_bits;
          spec.volume_bytes = trafficgen::kTransferBytes[index];
          spec.on_complete = [this, transfer](net::FlowId) {
            if (transfer->done) return;
            transfer->done = true;
            simu_.cancel(transfer->timeout_event);
            transfer->record.ttlb_s =
                sim::to_seconds(simu_.now() - transfer->record.start);
            transfer->record.timed_out = false;
            finish(transfer->record);
          };
          transfer->flow = netw_.add_flow(std::move(spec));
        });

    transfer->timeout_event = simu_.schedule_in(
        sim::from_seconds(limit), [this, transfer, limit] {
          if (transfer->done) return;
          transfer->done = true;
          if (transfer->flow != 0) netw_.remove_flow(transfer->flow);
          transfer->record.ttlb_s = limit;
          transfer->record.timed_out = true;
          finish(transfer->record);
        });
  }

  void finish(const trafficgen::TransferRecord& record) {
    results_.records.push_back(record);
    // Torperf cadence: next transfer a minute after the previous start, or
    // shortly after a long transfer finishes.
    const sim::SimTime next =
        std::max(record.start + 60 * sim::kSecond,
                 simu_.now() + 5 * sim::kSecond);
    if (next < sim::from_seconds(config_.sim_seconds))
      simu_.schedule_at(next, [this] { begin_transfer(); });
  }

  sim::Simulator& simu_;
  net::FlowNet& netw_;
  const std::vector<net::ResourceId>& relay_resources_;
  const std::vector<double>& weights_;
  const std::vector<double>& rho_;
  const ShadowNet& net_;
  const PerfConfig& config_;
  trafficgen::BenchmarkResults& results_;
  sim::Rng rng_;
  Region region_;
  int next_size_ = 0;
};

}  // namespace

PerfResult run_performance(const ShadowNet& net,
                           const tor::BandwidthFile& weights,
                           const PerfConfig& config, std::uint64_t seed) {
  PerfResult out;
  const auto norm_weights = metrics::normalize(weights_of(weights));

  // Mean-field background: expected load per relay is weight-proportional.
  const double background_total =
      config.base_load_factor * config.load_scale * net.total_capacity_bits;
  std::vector<double> assigned(net.relays.size());
  std::vector<double> rho(net.relays.size());
  std::vector<double> carried(net.relays.size());  // forwarded background
  for (std::size_t i = 0; i < net.relays.size(); ++i) {
    assigned[i] = background_total * norm_weights[i];
    const double cap = net.relays[i].capacity_bits;
    rho[i] = std::min(assigned[i] / cap, 0.995);
    carried[i] = std::min(assigned[i], cap * 0.995);
  }

  sim::Simulator simu;
  net::FlowNet netw(simu);
  std::vector<net::ResourceId> relay_resources;
  for (std::size_t i = 0; i < net.relays.size(); ++i) {
    const double cap = net.relays[i].capacity_bits;
    // Saturated relays crawl: benchmark cells squeeze through whatever the
    // background stampede leaves over.
    const double avail = std::max(cap - carried[i], cap * 0.002);
    relay_resources.push_back(netw.add_resource(avail));
  }

  sim::Rng rng(seed);
  std::vector<std::unique_ptr<BenchClient>> clients;
  for (int c = 0; c < config.bench_clients; ++c) {
    clients.push_back(std::make_unique<BenchClient>(
        simu, netw, relay_resources, norm_weights, rho, net, config,
        out.bench, rng.fork("bench-" + std::to_string(c))));
    clients.back()->start();
  }

  // Per-second network-throughput sampling with background wobble.
  const double carried_total =
      std::accumulate(carried.begin(), carried.end(), 0.0);
  double wobble = 0.0;
  auto* wobble_ptr = &wobble;
  auto* rng_ptr = &rng;
  auto* netw_ptr = &netw;
  auto* out_ptr = &out;
  const auto resources_copy = relay_resources;
  simu.schedule_every(sim::kSecond, [=]() {
    *wobble_ptr = 0.9 * *wobble_ptr +
                  rng_ptr->normal(0.0, config.background_noise_sigma);
    double bench_bits = 0.0;
    for (const auto r : resources_copy)
      bench_bits += netw_ptr->resource_usage(r);
    out_ptr->throughput_series_bits.push_back(
        carried_total * (1.0 + *wobble_ptr) + bench_bits);
    return true;
  });

  simu.run_until(sim::from_seconds(config.sim_seconds));
  return out;
}

}  // namespace flashflow::shadowsim
