// Bandwidth and data-size unit helpers.
//
// Conventions used across the project:
//   - rates are double bits/second
//   - data volumes are double bytes
// Helpers construct values from human units so call sites read like the
// paper ("250 Mbit/s", "5 MiB").
#pragma once

namespace flashflow::net {

inline constexpr double kBitsPerByte = 8.0;

// --- rates (bits/second) ---
constexpr double mbit(double v) { return v * 1e6; }
constexpr double gbit(double v) { return v * 1e9; }

constexpr double to_mbit(double bits_per_sec) { return bits_per_sec / 1e6; }
constexpr double to_gbit(double bits_per_sec) { return bits_per_sec / 1e9; }

// --- volumes (bytes) ---
constexpr double kib(double v) { return v * 1024.0; }

constexpr double bytes_from_bits(double bits) { return bits / kBitsPerByte; }
constexpr double bits_from_bytes(double bytes) { return bytes * kBitsPerByte; }

}  // namespace flashflow::net
