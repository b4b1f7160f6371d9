// Descriptive statistics used throughout the analyses and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flashflow::metrics {

/// Arithmetic mean. Requires a non-empty range.
double mean(std::span<const double> xs);

/// Population standard deviation. Requires a non-empty range.
double stdev(std::span<const double> xs);

/// Relative standard deviation stdev/mean (paper Eq. 7).
/// Requires a non-empty range with non-zero mean.
double relative_stdev(std::span<const double> xs);

/// Median (averaging the middle pair for even sizes). Non-empty range.
double median(std::span<const double> xs);

/// Linear-interpolated percentile; q in [0, 100]. Non-empty range. Throws
/// std::invalid_argument on a NaN q or a NaN element.
double percentile(std::span<const double> xs, double q);

/// The same percentile, bit for bit, computed in place: selects the two
/// order statistics the interpolation reads with std::nth_element and
/// std::min_element instead of sorting a copy, and leaves `xs` permuted.
/// For callers that own scratch (the slot aggregation's per-target median).
double percentile_in_place(std::span<double> xs, double q);

/// Smallest/largest value. Non-empty range.
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Five-number summary used by the paper's boxplots: whiskers at the 5th and
/// 95th percentiles, box at the interquartile range, line at the median,
/// triangle at the mean (Fig. 9 caption).
struct BoxStats {
  double p5 = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double p95 = 0;
  double mean = 0;
};
BoxStats box_stats(std::span<const double> xs);

/// Convenience conversions for call sites holding vectors.
inline std::span<const double> as_span(const std::vector<double>& v) {
  return {v.data(), v.size()};
}

}  // namespace flashflow::metrics
