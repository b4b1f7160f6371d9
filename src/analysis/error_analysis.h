// Streaming implementations of the §3 / Appendix A analyses over archive
// snapshots: capacity error (Figs 1-2), weight error (Figs 3-4), and
// variation (Fig 10).
//
// Each analyzer consumes hourly snapshots and maintains O(1)-per-hour
// per-relay state (trailing maxima / rolling stats), matching the paper's
// equations:
//   C(r,t,p)  = max advertised over window p      (Eq 1, TrailingMax)
//   RCE       = 1 - A/C                           (Eq 2)
//   NCE       = 1 - sum A / sum C                 (Eq 3)
//   RWE       = W / Cbar                          (Eq 5)
//   NWE       = (1/2) sum |W - Cbar|              (Eq 6)
//   RSD       = stdev/mean over window            (Eq 7, RollingWindowStats)
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/archive.h"
#include "metrics/timeseries.h"

namespace flashflow::analysis {

/// The four window lengths used throughout §3, in hours.
enum class Window : std::size_t { kDay = 0, kWeek = 1, kMonth = 2, kYear = 3 };
inline constexpr std::array<std::int64_t, 4> kWindowHours = {24, 168, 720,
                                                             8760};
inline constexpr std::array<const char*, 4> kWindowNames = {"day", "week",
                                                            "month", "year"};

/// The analyses accumulate their errors every sixth observed hour; the
/// trailing maxima and rolling windows still see every hour.
inline constexpr std::int64_t kSampleStrideHours = 6;

/// Figs 1 & 2: relay and network capacity error.
class CapacityErrorAnalysis {
 public:
  void observe(const Snapshot& snapshot);

  /// Fig 1: per-relay mean RCE (fractions in [0,1]) for a window; one
  /// entry per relay that accumulated at least one sample.
  std::vector<double> mean_rce_per_relay(Window w) const;

  /// Fig 2: hourly NCE series for a window.
  const std::vector<double>& nce_series(Window w) const;

 private:
  struct Track {
    std::array<std::unique_ptr<metrics::TrailingMax>, 4> max_adv;
    std::array<double, 4> rce_sum{};
    std::array<std::int64_t, 4> rce_count{};
  };
  std::int64_t observed_hours_ = 0;
  std::map<std::size_t, Track> tracks_;
  std::array<std::vector<double>, 4> nce_;
};

/// Figs 3 & 4: relay and network weight error against the max-advertised
/// capacity proxy.
class WeightErrorAnalysis {
 public:
  void observe(const Snapshot& snapshot);

  /// Fig 3: per-relay mean RWE (ratios; plot log10).
  std::vector<double> mean_rwe_per_relay(Window w) const;

  /// Fig 4: hourly NWE series.
  const std::vector<double>& nwe_series(Window w) const;

 private:
  struct Track {
    std::array<std::unique_ptr<metrics::TrailingMax>, 4> max_adv;
    std::array<double, 4> rwe_sum{};
    std::array<std::int64_t, 4> rwe_count{};
  };
  std::int64_t observed_hours_ = 0;
  std::map<std::size_t, Track> tracks_;
  std::array<std::vector<double>, 4> nwe_;
};

/// Fig 10: mean relative standard deviation of advertised bandwidths and of
/// normalized consensus weights, per relay and window.
class VariationAnalysis {
 public:
  void observe(const Snapshot& snapshot);

  std::vector<double> mean_advertised_rsd_per_relay(Window w) const;
  std::vector<double> mean_weight_rsd_per_relay(Window w) const;

 private:
  struct Track {
    std::array<std::unique_ptr<metrics::RollingWindowStats>, 4> adv;
    std::array<std::unique_ptr<metrics::RollingWindowStats>, 4> weight;
    std::array<double, 4> adv_rsd_sum{};
    std::array<double, 4> weight_rsd_sum{};
    std::array<std::int64_t, 4> count{};
  };
  std::int64_t observed_hours_ = 0;
  std::map<std::size_t, Track> tracks_;
};

}  // namespace flashflow::analysis
