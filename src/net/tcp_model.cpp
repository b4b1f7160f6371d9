#include "net/tcp_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/units.h"

namespace flashflow::net {

KernelProfile KernelProfile::default_profile() { return KernelProfile{}; }

KernelProfile KernelProfile::tuned_profile() {
  KernelProfile k;
  k.read_buffer_bytes = 64.0 * 1024 * 1024;
  k.write_buffer_bytes = 64.0 * 1024 * 1024;
  return k;
}

double KernelProfile::usable_window_bytes() const {
  return std::min(read_buffer_bytes, write_buffer_bytes);
}

double tcp_socket_throughput(const KernelProfile& kernel, double rtt_s,
                             double loss_rate, const TcpModelParams& params) {
  if (rtt_s <= 0.0)
    throw std::invalid_argument("tcp_socket_throughput: rtt <= 0");
  const double window_cap =
      bits_from_bytes(kernel.usable_window_bytes()) / rtt_s;
  double mathis_cap = std::numeric_limits<double>::infinity();
  if (loss_rate > 0.0) {
    mathis_cap = bits_from_bytes(params.mss_bytes) * params.mathis_constant /
                 (rtt_s * std::sqrt(loss_rate));
  }
  const double unconstrained_cap =
      params.peak_rate_bits / (1.0 + rtt_s / params.rtt_penalty_scale_s);
  return std::min({window_cap, mathis_cap, unconstrained_cap});
}

}  // namespace flashflow::net
