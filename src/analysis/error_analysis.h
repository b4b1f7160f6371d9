// Streaming implementations of the §3 / Appendix A analyses over archive
// snapshots: capacity and weight error (Figs 1-4, Fig 5's weight error)
// and variation (Fig 10).
//
// Each analyzer consumes hourly snapshots and keeps one row per relay in
// a dense table indexed by SnapshotRelay::pop_index. A row holds one
// history per tracked series, which answers all four windows: one
// trailing maximum of the advertised bandwidth for Eqs 1-6, and rolling
// advertised-bandwidth and weight histories for Eq 7. Per hour a relay
// costs one push per series and one read per window, matching the
// paper's equations:
//   C(r,t,p)  = max advertised over window p      (Eq 1, TrailingMax)
//   RCE       = 1 - A/C                           (Eq 2)
//   NCE       = 1 - sum A / sum C                 (Eq 3)
//   RWE       = W / Cbar                          (Eq 5)
//   NWE       = (1/2) sum |W - Cbar|              (Eq 6)
//   RSD       = stdev/mean over window            (Eq 7, RollingWindowStats)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/archive.h"
#include "metrics/timeseries.h"

namespace flashflow::analysis {

/// The four window lengths used throughout §3, in hours.
enum class Window : std::size_t { kDay = 0, kWeek = 1, kMonth = 2, kYear = 3 };
inline constexpr std::array<std::size_t, 4> kWindowHours = {24, 168, 720,
                                                            8760};
inline constexpr std::array<const char*, 4> kWindowNames = {"day", "week",
                                                            "month", "year"};

/// The analyses accumulate their errors every sixth observed hour; the
/// trailing maxima and rolling windows still see every hour.
inline constexpr std::int64_t kSampleStrideHours = 6;

/// Figs 1-4: relay and network capacity error (Eqs 1-3) and weight error
/// against the max-advertised capacity proxy (Eqs 4-6). Every hour pushes
/// the trailing maxima and an NCE value; an hour whose total consensus
/// weight is <= 0 adds no RWE sample and no NWE value.
class ErrorAnalysis {
 public:
  void observe(const Snapshot& snapshot);

  /// Fig 1: per-relay mean RCE (fractions in [0,1]) for a window; one
  /// entry per relay that accumulated at least one sample, by pop_index.
  std::vector<double> mean_rce_per_relay(Window w) const;

  /// Fig 2: hourly NCE series for a window.
  const std::vector<double>& nce_series(Window w) const;

  /// Fig 3: per-relay mean RWE (ratios; plot log10).
  std::vector<double> mean_rwe_per_relay(Window w) const;

  /// Fig 4: hourly NWE series.
  const std::vector<double>& nwe_series(Window w) const;

 private:
  struct Track {
    metrics::TrailingMax max_adv{kWindowHours.back()};
    std::array<double, 4> capacity{};  // this hour's C(r,t,p) per window
    std::array<double, 4> rce_sum{};
    std::array<std::int64_t, 4> rce_count{};
    std::array<double, 4> rwe_sum{};
    std::array<std::int64_t, 4> rwe_count{};
  };
  std::int64_t observed_hours_ = 0;
  std::vector<Track> tracks_;  // by pop_index
  std::array<std::vector<double>, 4> nce_;
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
    metrics::RollingWindowStats adv{kWindowHours};
    metrics::RollingWindowStats weight{kWindowHours};
    std::array<double, 4> adv_rsd_sum{};
    std::array<double, 4> weight_rsd_sum{};
    std::array<std::int64_t, 4> count{};
  };
  std::int64_t observed_hours_ = 0;
  std::vector<Track> tracks_;  // by pop_index
};

}  // namespace flashflow::analysis
