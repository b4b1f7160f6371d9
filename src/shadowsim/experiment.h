// Shadow-style experiments (paper §7, Figs 8 & 9).
//
// run_measurement_comparison(): measures the shadow network once with the
// real FlashFlow BWAuth machinery (3 x 1 Gbit/s measurers) and once with
// the TorFlow baseline, then computes the paper's error metrics against
// ground-truth capacities (Fig 8).
//
// run_performance(): load-balances client traffic with a given weight set
// and measures benchmark-client transfer times, timeout rates, and total
// relay throughput at a given load level (Fig 9). Background client load
// uses a mean-field assignment (expected weight-proportional load per
// relay); benchmark transfers run as individual fluid flows through their
// 3-hop paths on a net::FlowNet. One loop drives the run: it steps to the
// earliest of the clients' timers (a transfer's start, first byte or
// deadline), the net's next finish and the next per-second sample.
#pragma once

#include <cstdint>
#include <vector>

#include "shadowsim/shadow_net.h"
#include "tor/authority.h"
#include "trafficgen/benchmark.h"

namespace flashflow::shadowsim {

struct MeasurementComparison {
  tor::BandwidthFile flashflow_file;
  tor::BandwidthFile torflow_file;
  /// Fig 8a: per-relay capacity error |1 - estimate/capacity| (FlashFlow).
  std::vector<double> ff_capacity_error;
  double ff_network_capacity_error = 0;  // Eq 3
  /// Fig 8b: per-relay weight error W/Cbar for both systems.
  std::vector<double> ff_relay_weight_error;
  std::vector<double> tf_relay_weight_error;
  double ff_network_weight_error = 0;  // Eq 6
  double tf_network_weight_error = 0;
};

MeasurementComparison run_measurement_comparison(const ShadowNet& net,
                                                 std::uint64_t seed);

struct PerfConfig {
  /// Relay-side background load at "100%" as a fraction of total capacity.
  double base_load_factor = 0.50;
  /// 1.0 = 100%, 1.15 = 115%, 1.30 = 130% (paper's load levels).
  double load_scale = 1.0;
  double sim_seconds = 1800;
  int bench_clients = 40;
  /// Client access-link cap per transfer (bits/s).
  double client_cap_bits = 8e6;
  /// Background load wobble (per-second AR(1) sigma) for throughput series.
  double background_noise_sigma = 0.02;
};

struct PerfResult {
  trafficgen::BenchmarkResults bench;
  /// Per-second total relay-forwarded traffic (bits/s), Fig 9c.
  std::vector<double> throughput_series_bits;
};

/// `weights` must list `net`'s relays, one entry each, in the network's
/// order (relay i's fingerprint at position i): otherwise
/// std::invalid_argument.
PerfResult run_performance(const ShadowNet& net,
                           const tor::BandwidthFile& weights,
                           const PerfConfig& config, std::uint64_t seed);

}  // namespace flashflow::shadowsim
