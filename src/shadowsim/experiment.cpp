#include "shadowsim/experiment.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/bwauth.h"
#include "core/params.h"
#include "metrics/error_metrics.h"
#include "net/flownet.h"
#include "net/units.h"
#include "sim/random.h"
#include "sim/time.h"
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

constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();

/// One benchmark client: a sequence of transfers, each waiting on one
/// timer for its start, its first byte, or its deadline.
struct Client {
  enum class Phase { kStart, kFirstByte, kDeadline };
  sim::Rng rng;
  Region region;
  sim::SimTime timer;  // kNever once no transfer is due
  Phase phase = Phase::kStart;
  int next_size = 0;
  trafficgen::TransferRecord record{};
  std::vector<net::ResourceId> path{};  // the transfer's three relays
  net::FlowId flow = 0;
};

/// Refuses a weight file made for another network: run_performance reads
/// relay i's weight at position i.
void check_weights(const ShadowNet& net, const tor::BandwidthFile& weights) {
  if (!std::equal(weights.begin(), weights.end(), net.relays.begin(),
                  net.relays.end(), [](const auto& entry, const auto& relay) {
                    return entry.fingerprint == relay.fingerprint;
                  }))
    throw std::invalid_argument(
        "run_performance: the weight file must list the network's relays, "
        "one entry each, in the network's order");
}

}  // namespace

PerfResult run_performance(const ShadowNet& net,
                           const tor::BandwidthFile& weights,
                           const PerfConfig& config, std::uint64_t seed) {
  check_weights(net, weights);
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

  net::FlowNet netw;
  std::vector<net::ResourceId> relay_resources;
  for (std::size_t i = 0; i < net.relays.size(); ++i) {
    const double cap = net.relays[i].capacity_bits;
    // Saturated relays crawl: benchmark cells squeeze through whatever the
    // background stampede leaves over.
    const double avail = std::max(cap - carried[i], cap * 0.002);
    relay_resources.push_back(netw.add_resource(avail));
  }

  sim::Rng rng(seed);
  std::vector<Client> clients;
  for (int c = 0; c < config.bench_clients; ++c) {
    sim::Rng client_rng = rng.fork("bench-" + std::to_string(c));
    const auto region =
        static_cast<Region>(client_rng.uniform_int(0, kRegionCount - 1));
    // Desynchronize clients.
    const sim::SimTime first =
        sim::from_seconds(client_rng.uniform(0.0, 30.0));
    clients.push_back(
        {.rng = std::move(client_rng), .region = region, .timer = first});
  }

  const sim::SimTime end = sim::from_seconds(config.sim_seconds);
  const auto finish = [&](Client& c, sim::SimTime now) {
    out.bench.records.push_back(c.record);
    // Torperf cadence: next transfer a minute after the previous start, or
    // shortly after a long transfer finishes.
    const sim::SimTime next =
        std::max(c.record.start + 60 * sim::kSecond, now + 5 * sim::kSecond);
    c.phase = Client::Phase::kStart;
    c.timer = next < end ? next : kNever;
  };
  const auto limit_of = [](const Client& c) {
    return trafficgen::kTransferTimeoutS[static_cast<int>(c.record.size)];
  };

  // Advancing the net completes the transfers whose volume drained. One
  // that drains at its deadline has timed out: its deadline step records
  // it.
  std::vector<net::FlowId> finished;
  const auto advance = [&](sim::SimTime now) {
    netw.advance_to(now, finished);
    for (const net::FlowId id : finished) {
      Client& c = *std::find_if(clients.begin(), clients.end(),
                                [id](const Client& k) { return k.flow == id; });
      if (c.timer == now) continue;
      c.record.ttlb_s = sim::to_seconds(now - c.record.start);
      finish(c, now);
    }
  };

  const auto begin_transfer = [&](Client& c, sim::SimTime now) {
    using trafficgen::TransferSize;
    const auto size = static_cast<TransferSize>(c.next_size);
    c.next_size = (c.next_size + 1) % 3;

    // Weighted 3-hop path.
    std::vector<double> w = norm_weights;
    std::array<std::size_t, 3> path{};
    for (auto& hop : path) {
      hop = c.rng.weighted_index(w);
      w[hop] = 0.0;
    }

    // TTFB: circuit latency plus congestion queueing at each hop.
    const double rtt_sum =
        region_rtt(c.region, net.relays[path[0]].region) +
        region_rtt(net.relays[path[0]].region, net.relays[path[1]].region) +
        region_rtt(net.relays[path[1]].region, net.relays[path[2]].region) +
        region_rtt(net.relays[path[2]].region, Region::kNaEast);
    double queue_delay = 0.0;
    for (const auto hop : path) {
      const double hop_rho = rho[hop];
      queue_delay +=
          std::min(0.05 * hop_rho / std::max(1.0 - hop_rho, 0.005), 10.0);
    }

    c.record = {size, now, 2.2 * rtt_sum + queue_delay};
    c.path = {relay_resources[path[0]], relay_resources[path[1]],
              relay_resources[path[2]]};
    // The timeout clock starts at the request, covering circuit setup and
    // queueing (TTFB) as well as the download itself.
    if (c.record.ttfb_s >= limit_of(c)) {
      c.record.ttlb_s = limit_of(c);
      c.record.timed_out = true;
      finish(c, now);
      return;
    }
    // Bytes begin flowing once the first byte arrives.
    c.phase = Client::Phase::kFirstByte;
    c.timer = now + sim::from_seconds(c.record.ttfb_s);
  };

  const auto step = [&](Client& c, sim::SimTime now) {
    switch (c.phase) {
      case Client::Phase::kStart:
        begin_transfer(c, now);
        break;
      case Client::Phase::kFirstByte:
        advance(now);
        c.flow = netw.add_flow(
            c.path, config.client_cap_bits,
            trafficgen::kTransferBytes[static_cast<int>(c.record.size)]);
        c.phase = Client::Phase::kDeadline;
        c.timer = c.record.start + sim::from_seconds(limit_of(c));
        break;
      case Client::Phase::kDeadline:
        advance(now);
        netw.remove_flow(c.flow);
        c.record.ttlb_s = limit_of(c);
        c.record.timed_out = true;
        finish(c, now);
        break;
    }
  };

  // Per-second network-throughput sampling with background wobble.
  const double carried_total =
      std::accumulate(carried.begin(), carried.end(), 0.0);
  double wobble = 0.0;
  sim::SimTime next_sample = sim::kSecond;
  for (;;) {
    const sim::SimTime drain = netw.next_completion();
    sim::SimTime now = std::min(drain, next_sample);
    for (const Client& c : clients) now = std::min(now, c.timer);
    if (now > end) break;
    // One microsecond's events run in a fixed order: flows that drain,
    // then the clients by index, then the throughput sample. The recorded
    // Fig 9 bits come from an event queue that ran same-time events in the
    // order they were scheduled; a client's timer is nearly always set
    // over a second ahead and the sample's one second ahead, so the client
    // ran first.
    if (drain == now) advance(now);
    for (Client& c : clients)
      while (c.timer == now) step(c, now);
    if (next_sample == now) {
      advance(now);
      wobble = 0.9 * wobble + rng.normal(0.0, config.background_noise_sigma);
      double bench_bits = 0.0;
      for (const auto r : relay_resources) bench_bits += netw.resource_usage(r);
      out.throughput_series_bits.push_back(carried_total * (1.0 + wobble) +
                                           bench_bits);
      next_sample += sim::kSecond;
    }
  }
  return out;
}

}  // namespace flashflow::shadowsim
