// Benchmark clients mirroring Tor's performance measurement process
// (paper §7: 40 TGen clients repeatedly downloading 50 KiB, 1 MiB, and
// 5 MiB files with 15/60/120-second timeouts).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace flashflow::trafficgen {

enum class TransferSize : int { k50KiB = 0, k1MiB = 1, k5MiB = 2 };

inline constexpr std::array<double, 3> kTransferBytes = {
    50.0 * 1024, 1024.0 * 1024, 5.0 * 1024 * 1024};
inline constexpr std::array<double, 3> kTransferTimeoutS = {15.0, 60.0,
                                                            120.0};
inline constexpr std::array<const char*, 3> kTransferNames = {"50KiB",
                                                              "1MiB", "5MiB"};

struct TransferRecord {
  TransferSize size = TransferSize::k50KiB;
  sim::SimTime start = 0;
  double ttfb_s = 0;   // time to first byte
  double ttlb_s = 0;   // time to last byte (includes ttfb)
  bool timed_out = false;
};

/// Aggregated benchmark results across clients.
struct BenchmarkResults {
  std::vector<TransferRecord> records;

  std::vector<double> ttfb_all() const;
  std::vector<double> ttlb_for(TransferSize size) const;
  /// Error (timeout) rate across all transfers, in [0,1].
  double error_rate() const;
};

}  // namespace flashflow::trafficgen
