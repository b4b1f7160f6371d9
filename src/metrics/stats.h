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

/// Largest value. Non-empty range.
double max_value(std::span<const double> xs);

/// Convenience conversions for call sites holding vectors.
inline std::span<const double> as_span(const std::vector<double>& v) {
  return {v.data(), v.size()};
}

}  // namespace flashflow::metrics
