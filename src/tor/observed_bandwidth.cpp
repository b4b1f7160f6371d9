#include "tor/observed_bandwidth.h"

#include <algorithm>

namespace flashflow::tor {

ObservedBandwidth::ObservedBandwidth(std::size_t window_samples,
                                     std::size_t history_samples)
    : window_max_(window_samples, history_samples) {}

ObservedBandwidth ObservedBandwidth::archive_hourly() {
  return ObservedBandwidth(1, 5 * 24);
}

void ObservedBandwidth::record(double throughput_bits) {
  window_max_.push(throughput_bits);
}

double ObservedBandwidth::observed_bits() const { return window_max_.max(); }

double advertised_bandwidth(double observed_bits, double rate_limit_bits) {
  if (rate_limit_bits <= 0.0) return observed_bits;
  return std::min(observed_bits, rate_limit_bits);
}

}  // namespace flashflow::tor
