// Cell scheduler models.
//
// Tor's KIST scheduler is designed for priority scheduling across *many*
// sockets and cannot fill a fast link through only a few (Tor ticket #29427;
// Appendix C: throughput grows roughly linearly with socket count until the
// CPU saturates, and extra circuits on one socket do not help). FlashFlow
// therefore adds a separate measurement-circuit scheduler with no per-socket
// write cap (§4.1), which is how a single measurement socket reaches
// 1.27 Gbit/s in Fig 12.
#pragma once

namespace flashflow::tor {

struct SchedulerModel {
  /// KIST-like per-socket write cap for normally scheduled traffic, bits/s.
  double kist_per_socket_cap_bits = 96e6;

  /// Aggregate cap of the normal scheduler over n busy sockets (bits/s).
  double normal_aggregate_cap(int sockets) const;
};

}  // namespace flashflow::tor
