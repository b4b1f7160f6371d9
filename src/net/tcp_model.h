// Steady-state TCP socket throughput model.
//
// A single TCP socket's achievable rate on a path is limited by:
//   1. the socket-buffer / bandwidth-delay product: window / RTT, where the
//      window is bounded by the kernel's socket buffer limits (Appendix D);
//   2. random loss, via the Mathis throughput bound MSS*C/(RTT*sqrt(p));
//   3. a mild utilization penalty growing with RTT, standing in for the
//      slower window convergence on long paths that the paper observes in
//      Fig. 12 (tuned-kernel throughput still decreases with RTT even when
//      buffers are not the binding constraint).
//
// Linux defaults on the paper's hosts were 4 MiB read / 6 MiB write buffer
// maxima; their "tuned" configuration raises both to 64 MiB.
#pragma once

namespace flashflow::net {

/// Kernel socket-buffer configuration (Appendix D).
struct KernelProfile {
  double read_buffer_bytes = 4.0 * 1024 * 1024;
  double write_buffer_bytes = 6.0 * 1024 * 1024;

  static KernelProfile default_profile();
  static KernelProfile tuned_profile();

  /// Usable end-to-end window: limited by the smaller buffer side.
  double usable_window_bytes() const;
};

struct TcpModelParams {
  double mss_bytes = 1500.0;
  double mathis_constant = 1.22;  // sqrt(3/2)
  /// Peak single-socket rate of the stack on a zero-RTT path (bits/s).
  double peak_rate_bits = 2e9;
  /// Long-fat-pipe inefficiency: when the socket is NOT window-limited,
  /// its achievable rate is peak/(1 + rtt/scale) — loss recovery and ACK
  /// clocking degrade with RTT (Fig 12's tuned-kernel curve). Window-
  /// limited flows run at exactly window/RTT (ACK clocking is stable).
  double rtt_penalty_scale_s = 0.15;
};

/// Steady throughput (bits/s) of one TCP socket on a path with the given
/// round-trip time and loss rate. loss_rate == 0 disables the Mathis term.
/// Requires rtt_s > 0.
double tcp_socket_throughput(const KernelProfile& kernel, double rtt_s,
                             double loss_rate,
                             const TcpModelParams& params = {});

}  // namespace flashflow::net
