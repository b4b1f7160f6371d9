#include "metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace flashflow::metrics {

namespace {
void require_nonempty(std::span<const double> xs, const char* what) {
  if (xs.empty()) throw std::invalid_argument(std::string(what) + ": empty");
}
}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) {
  require_nonempty(xs, "stdev");
  const double m = mean(xs);
  double ss = 0.0;
  for (const double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  return percentile_in_place(copy, q);
}

double percentile_in_place(std::span<double> xs, double q) {
  require_nonempty(xs, "percentile");
  // Negated so that a NaN q fails too: its rank would convert to an
  // integer below, which is undefined behaviour.
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("percentile: q out of [0,100]");
  // NaN breaks the strict weak ordering std::nth_element needs.
  if (std::any_of(xs.begin(), xs.end(),
                  [](double x) { return std::isnan(x); }))
    throw std::invalid_argument("percentile: NaN element");
  if (xs.size() == 1) return xs.front();
  const double rank = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // The lo-th order statistic, then the hi-th: the smallest of what
  // nth_element left above it. Sorting would put the same two values at
  // lo and hi, so the interpolation below matches a sort bit for bit.
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), nth, xs.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, xs.end());
  return at_lo + frac * (at_hi - at_lo);
}

double max_value(std::span<const double> xs) {
  require_nonempty(xs, "max_value");
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace flashflow::metrics
