#include "metrics/cdf.h"

#include <algorithm>
#include <stdexcept>

namespace flashflow::metrics {

Cdf::Cdf(std::span<const double> samples)
    : samples_(samples.begin(), samples.end()) {}

void Cdf::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Cdf::finalize() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::fraction_at_most(double x) {
  if (samples_.empty()) throw std::logic_error("Cdf: empty");
  finalize();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) {
  if (samples_.empty()) throw std::logic_error("Cdf: empty");
  // Negated so that a NaN q fails too (its rank cannot become an index).
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("Cdf::quantile: q");
  finalize();
  if (samples_.size() == 1) return samples_.front();
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double Cdf::fraction_within(double lo, double hi) {
  if (samples_.empty()) throw std::logic_error("Cdf: empty");
  finalize();
  const auto first = std::lower_bound(samples_.begin(), samples_.end(), lo);
  const auto last = std::upper_bound(samples_.begin(), samples_.end(), hi);
  return static_cast<double>(last - first) /
         static_cast<double>(samples_.size());
}

std::vector<Cdf::Point> Cdf::series(int points) {
  if (samples_.empty()) throw std::logic_error("Cdf: empty");
  if (points < 2) throw std::invalid_argument("Cdf::series: points < 2");
  finalize();
  const double lo = samples_.front();
  const double hi = samples_.back();
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back({x, fraction_at_most(x)});
  }
  return out;
}

}  // namespace flashflow::metrics
