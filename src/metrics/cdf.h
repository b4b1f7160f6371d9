// Empirical cumulative distribution functions.
//
// Used to reproduce the paper's CDF figures (Figs 1, 3, 6, 10, 12, 16) as
// printable series: for a grid of x values, the cumulative fraction of
// samples <= x.
#pragma once

#include <span>
#include <vector>

namespace flashflow::metrics {

class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::span<const double> samples);

  void add(double sample);
  /// Sorts pending samples; called automatically by the queries below.
  void finalize();

  std::size_t size() const { return samples_.size(); }

  /// Fraction of samples <= x, in [0, 1].
  double fraction_at_most(double x);
  /// Value at cumulative fraction q in [0, 1] (inverse CDF, interpolated).
  double quantile(double q);
  /// Fraction of samples inside [lo, hi] (both inclusive).
  double fraction_within(double lo, double hi);

  /// Evenly spaced (x, F(x)) series across [min, max] with `points` entries,
  /// for plotting / printing. Requires a non-empty CDF and points >= 2.
  struct Point {
    double x = 0;
    double fraction = 0;
  };
  std::vector<Point> series(int points);

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace flashflow::metrics
