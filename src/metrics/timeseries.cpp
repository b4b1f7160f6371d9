#include "metrics/timeseries.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flashflow::metrics {

TrailingMax::TrailingMax(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument("TrailingMax: zero window");
}

void TrailingMax::push(double sample) {
  while (!deque_.empty() && deque_.back().second <= sample)
    deque_.pop_back();
  deque_.emplace_back(pushed_, sample);
  ++pushed_;
  // Expire entries outside the trailing window [pushed_ - window_, ...).
  while (pushed_ > window_ && deque_.front().first < pushed_ - window_)
    deque_.pop_front();
}

double TrailingMax::max() const {
  if (deque_.empty()) throw std::logic_error("TrailingMax: no samples");
  return deque_.front().second;
}

RollingWindowStats::RollingWindowStats(std::size_t window) : window_(window) {
  if (window_ == 0)
    throw std::invalid_argument("RollingWindowStats: zero window");
}

void RollingWindowStats::push(double sample) {
  values_.push_back(sample);
  sum_ += sample;
  sum_sq_ += sample * sample;
  if (values_.size() > window_) {
    const double old = values_.front();
    values_.pop_front();
    sum_ -= old;
    sum_sq_ -= old * old;
  }
}

std::size_t RollingWindowStats::count() const { return values_.size(); }

double RollingWindowStats::mean() const {
  if (values_.empty()) throw std::logic_error("RollingWindowStats: empty");
  return sum_ / static_cast<double>(values_.size());
}

double RollingWindowStats::stdev() const {
  const double m = mean();
  const double var =
      std::max(0.0, sum_sq_ / static_cast<double>(values_.size()) - m * m);
  return std::sqrt(var);
}

double RollingWindowStats::relative_stdev() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return stdev() / m;
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
