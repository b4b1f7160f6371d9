#include "metrics/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace flashflow::metrics {

TrailingMax::TrailingMax(std::size_t longest) : longest_(longest) {
  if (longest_ == 0) throw std::invalid_argument("TrailingMax: zero window");
}

void TrailingMax::push(double sample) {
  while (entries_.size() > head_ && entries_.back().second <= sample)
    entries_.pop_back();
  entries_.emplace_back(pushed_, sample);
  ++pushed_;
  // Expire entries outside the longest window [pushed_ - longest_, ...).
  while (pushed_ > longest_ && entries_[head_].first < pushed_ - longest_)
    ++head_;
  // Drop the expired prefix once it outnumbers the live entries, so the
  // erase costs O(1) amortized per expiry.
  if (2 * head_ > entries_.size()) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

double TrailingMax::max(std::size_t window) const {
  if (window == 0 || window > longest_)
    throw std::invalid_argument("TrailingMax: window outside [1, longest]");
  if (pushed_ == 0) throw std::logic_error("TrailingMax: no samples");
  // The window's maximum is its oldest live entry: every entry after it is
  // smaller. The newest entry is always inside, so the search finds one.
  const std::size_t first = pushed_ > window ? pushed_ - window : 0;
  return std::partition_point(
             entries_.begin() + static_cast<std::ptrdiff_t>(head_),
             entries_.end(),
             [first](const auto& entry) { return entry.first < first; })
      ->second;
}

RollingWindowStats::RollingWindowStats(std::span<const std::size_t> windows) {
  if (windows.empty())
    throw std::invalid_argument("RollingWindowStats: no windows");
  for (const std::size_t window : windows) {
    if (window == 0)
      throw std::invalid_argument("RollingWindowStats: zero window");
    windows_.push_back({.window = window});
    longest_ = std::max(longest_, window);
  }
}

void RollingWindowStats::push(double sample) {
  for (Sums& w : windows_) {
    w.sum += sample;
    w.sum_sq += sample * sample;
    if (pushed_ >= w.window) {
      // The sample pushed `window` pushes ago leaves this window.
      const double old = history_[next_ >= w.window
                                      ? next_ - w.window
                                      : next_ + longest_ - w.window];
      w.sum -= old;
      w.sum_sq -= old * old;
    }
  }
  if (history_.size() < longest_) {
    // Grow geometrically, but never past the ring's length.
    if (history_.size() == history_.capacity())
      history_.reserve(std::min(longest_, 2 * history_.size() + 1));
    history_.push_back(sample);
  } else {
    history_[next_] = sample;
  }
  next_ = next_ + 1 == longest_ ? 0 : next_ + 1;
  ++pushed_;
}

std::size_t RollingWindowStats::count(std::size_t k) const {
  return std::min(pushed_, windows_[k].window);
}

double RollingWindowStats::relative_stdev(std::size_t k) const {
  const std::size_t n = count(k);
  if (n == 0) throw std::logic_error("RollingWindowStats: empty");
  const Sums& w = windows_[k];
  const double mean = w.sum / static_cast<double>(n);
  if (mean == 0.0) return 0.0;
  const double var =
      std::max(0.0, w.sum_sq / static_cast<double>(n) - mean * mean);
  return std::sqrt(var) / mean;
}

SlidingWindowMax::SlidingWindowMax(std::size_t window, std::size_t history)
    : window_(window), history_(history) {
  if (window_ == 0 || history_ == 0)
    throw std::invalid_argument("SlidingWindowMax: zero window or history");
}

void SlidingWindowMax::push(double sample) {
  recent_.push_back(sample);
  recent_sum_ += sample;
  if (recent_.size() > window_) {
    recent_sum_ -= recent_.front();
    recent_.pop_front();
  }
  if (recent_.size() == window_) {
    window_means_.push_back(recent_sum_ / static_cast<double>(window_));
    if (window_means_.size() > history_) window_means_.pop_front();
  }
}

double SlidingWindowMax::max() const {
  if (window_means_.empty()) return 0.0;
  return *std::max_element(window_means_.begin(), window_means_.end());
}

}  // namespace flashflow::metrics
