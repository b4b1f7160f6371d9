// Sliding and rolling windows over per-sample series.
//
// TrailingMax and SlidingWindowMax implement the "maximum sustained
// 10-second throughput over 5 days" computation behind Tor's observed
// bandwidth; RollingWindowStats backs the Appendix A variation analyses.
// TrailingMax and RollingWindowStats keep one history per series and
// answer every window up to the longest from it.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <utility>
#include <vector>

namespace flashflow::metrics {

/// Maximum over the trailing `window` samples for every window up to
/// `longest`, O(1) amortized per push (monotonic deque). Used for the
/// paper's C(r,t,p) = max advertised bandwidth over the window preceding
/// t (Eq 1).
class TrailingMax {
 public:
  explicit TrailingMax(std::size_t longest);

  void push(double sample);
  /// Max over the last min(window, pushes) samples, 1 <= window <=
  /// longest; requires >= 1 push.
  double max(std::size_t window) const;

 private:
  std::size_t longest_;
  std::size_t pushed_ = 0;
  std::size_t head_ = 0;  // first entry still inside the longest window
  // (sample index, value) from head_ on, values strictly decreasing.
  std::vector<std::pair<std::size_t, double>> entries_;
};

/// Rolling relative standard deviation over several trailing windows of
/// one series, O(windows) per push. Used for the Appendix A
/// relative-standard-deviation analyses (Eq 7). Each window's sums take
/// exactly the additions and subtractions a roll over that window alone
/// takes, so every window reads the bits a single-window roll would.
class RollingWindowStats {
 public:
  explicit RollingWindowStats(std::span<const std::size_t> windows);

  void push(double sample);
  /// Samples currently in window k (the k-th constructor window).
  std::size_t count(std::size_t k) const;
  /// Population stdev / mean over window k; 0 when the mean is 0.
  /// Requires count(k) >= 1.
  double relative_stdev(std::size_t k) const;

 private:
  struct Sums {
    std::size_t window;
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  std::vector<Sums> windows_;
  std::size_t longest_ = 0;
  std::size_t pushed_ = 0;
  std::size_t next_ = 0;         // history_ slot the next sample takes
  std::vector<double> history_;  // ring of the last longest_ samples
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
