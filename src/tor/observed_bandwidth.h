// Tor's observed-bandwidth self-measurement (tor-spec §2.1.1).
//
// A relay's "observed bandwidth" is the highest throughput it sustained over
// any 10-second window during the last 5 days. The relay publishes
// min(observed, configured rate limit) as its *advertised bandwidth* in a
// server descriptor every 18 hours. This heuristic is the root cause of the
// underestimation the paper quantifies in §3: an underutilized relay never
// demonstrates its capacity.
//
// The estimator is generic over the sampling period so the 11-year archive
// generator can run at hourly granularity (each hourly sample being that
// hour's peak short-window throughput) while live-relay simulations run at
// one-second granularity exactly like Tor.
#pragma once

#include <cstddef>

#include "metrics/timeseries.h"

namespace flashflow::tor {

class ObservedBandwidth {
 public:
  /// window_samples: samples per max-window (Tor: 10 one-second samples);
  /// history_samples: windows retained (Tor: 5 days of seconds).
  ObservedBandwidth(std::size_t window_samples, std::size_t history_samples);

  /// Hourly-archive configuration: window of one sample, 5 days of hours.
  static ObservedBandwidth archive_hourly();

  /// Records a throughput sample (bits/s averaged over the sample period).
  void record(double throughput_bits);

  /// Current observed bandwidth (bits/s); 0 before the first full window.
  double observed_bits() const;

 private:
  metrics::SlidingWindowMax window_max_;
};

/// Advertised bandwidth: min(observed, rate limit); rate_limit <= 0 means
/// unlimited.
double advertised_bandwidth(double observed_bits, double rate_limit_bits);

}  // namespace flashflow::tor
