// Sliding and rolling windows over per-sample series.
//
// TrailingMax and SlidingWindowMax implement the "maximum sustained
// 10-second throughput over 5 days" computation behind Tor's observed
// bandwidth; RollingWindowStats backs the Appendix A variation analyses.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

namespace flashflow::metrics {

/// Maximum over the trailing `window` samples, O(1) amortized per push
/// (monotonic deque). Used for the paper's C(r,t,p) = max advertised
/// bandwidth over the window preceding t (Eq 1).
class TrailingMax {
 public:
  explicit TrailingMax(std::size_t window);

  void push(double sample);
  /// Max over the last min(window, pushes) samples; requires >= 1 push.
  double max() const;

 private:
  std::size_t window_;
  std::size_t pushed_ = 0;
  // (sample index, value), values strictly decreasing front to back.
  std::deque<std::pair<std::size_t, double>> deque_;
};

/// Rolling mean/stdev over the trailing `window` samples, O(1) per push.
/// Used for the Appendix A relative-standard-deviation analyses (Eq 7).
class RollingWindowStats {
 public:
  explicit RollingWindowStats(std::size_t window);

  void push(double sample);
  std::size_t count() const;  // samples currently in the window
  double mean() const;        // requires count() >= 1
  double stdev() const;       // population stdev; requires count() >= 1
  /// stdev/mean; returns 0 when the mean is 0.
  double relative_stdev() const;

 private:
  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Sliding-window maximum of the mean over `window` consecutive samples,
/// with bounded history. Push one sample per time step; max() returns the
/// best window mean seen in the retained history.
class SlidingWindowMax {
 public:
  /// window: samples per window (e.g. 10 for 10-second mean);
  /// history: number of most recent window means retained (e.g. 5 days).
  SlidingWindowMax(std::size_t window, std::size_t history);

  void push(double sample);
  /// Highest mean over any complete window in the retained history; 0 when
  /// no complete window has been seen yet.
  double max() const;

 private:
  std::size_t window_;
  std::size_t history_;
  std::deque<double> recent_;     // last `window_` raw samples
  double recent_sum_ = 0.0;
  std::deque<double> window_means_;  // last `history_` window means
};

}  // namespace flashflow::metrics
