#include "metrics/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

#include "sim/random.h"

namespace flashflow::metrics {
namespace {

TEST(TrailingMax, TracksWindow) {
  TrailingMax m(3);
  m.push(5.0);
  EXPECT_DOUBLE_EQ(m.max(3), 5.0);
  m.push(3.0);
  m.push(1.0);
  EXPECT_DOUBLE_EQ(m.max(3), 5.0);
  EXPECT_DOUBLE_EQ(m.max(2), 3.0);
  EXPECT_DOUBLE_EQ(m.max(1), 1.0);
  m.push(2.0);  // 5 falls out of the window of 3
  EXPECT_DOUBLE_EQ(m.max(3), 3.0);
  m.push(0.5);
  EXPECT_DOUBLE_EQ(m.max(3), 2.0);
}

TEST(TrailingMax, RisingSequence) {
  TrailingMax m(2);
  for (int i = 1; i <= 10; ++i) {
    m.push(i);
    EXPECT_DOUBLE_EQ(m.max(2), i);
    EXPECT_DOUBLE_EQ(m.max(1), i);
  }
}

TEST(TrailingMax, NoSamplesOrBadWindowThrows) {
  TrailingMax m(4);
  EXPECT_THROW(m.max(4), std::logic_error);
  EXPECT_THROW(TrailingMax(0), std::invalid_argument);
  m.push(1.0);
  EXPECT_THROW(m.max(0), std::invalid_argument);
  EXPECT_THROW(m.max(5), std::invalid_argument);
}

/// Seeded series with long runs of repeated values (like advertised
/// bandwidths between descriptors) and occasional spikes, so ties, long
/// declines and expiring maxima all occur.
std::vector<double> stepped_series(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<double> series;
  double level = rng.uniform(0.0, 100.0);
  while (series.size() < n) {
    const auto run = static_cast<std::size_t>(rng.uniform_int(1, 12));
    for (std::size_t i = 0; i < run && series.size() < n; ++i)
      series.push_back(rng.chance(0.05) ? level * rng.uniform(1.0, 3.0)
                                        : level);
    level = rng.chance(0.3) ? level * rng.uniform(0.5, 1.0)
                            : rng.uniform(0.0, 100.0);
  }
  return series;
}

TEST(TrailingMax, EveryWindowMatchesBruteForce) {
  constexpr std::size_t kLongest = 40;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const std::vector<double> series = stepped_series(seed, 600);
    TrailingMax m(kLongest);
    for (std::size_t n = 1; n <= series.size(); ++n) {
      m.push(series[n - 1]);
      for (std::size_t w = 1; w <= kLongest; ++w) {
        const std::size_t first = n > w ? n - w : 0;
        const double expected = *std::max_element(
            series.begin() + static_cast<std::ptrdiff_t>(first),
            series.begin() + static_cast<std::ptrdiff_t>(n));
        ASSERT_EQ(m.max(w), expected) << "after " << n << " pushes, w=" << w;
      }
    }
  }
}

TEST(RollingWindowStats, RelativeStdev) {
  const std::array<std::size_t, 1> window = {3};
  RollingWindowStats s(window);
  s.push(1.0);
  s.push(2.0);
  s.push(3.0);
  EXPECT_NEAR(s.relative_stdev(0), 0.81649658 / 2.0, 1e-6);
  s.push(5.0);  // window now {2,3,5}: mean 10/3, variance 14/9
  EXPECT_NEAR(s.relative_stdev(0), std::sqrt(14.0) / 10.0, 1e-12);
}

TEST(RollingWindowStats, RelativeStdevZeroMean) {
  const std::array<std::size_t, 1> window = {2};
  RollingWindowStats s(window);
  s.push(1.0);
  s.push(-1.0);
  EXPECT_DOUBLE_EQ(s.relative_stdev(0), 0.0);
}

TEST(RollingWindowStats, CountSaturatesAtEachWindow) {
  const std::array<std::size_t, 2> windows = {2, 5};
  RollingWindowStats s(windows);
  s.push(1.0);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.count(1), 1u);
  for (int i = 0; i < 5; ++i) s.push(1.0);
  EXPECT_EQ(s.count(0), 2u);
  EXPECT_EQ(s.count(1), 5u);
}

TEST(RollingWindowStats, RejectsBadConfigAndEmptyReads) {
  const std::array<std::size_t, 2> zero = {3, 0};
  EXPECT_THROW(RollingWindowStats{zero}, std::invalid_argument);
  EXPECT_THROW(RollingWindowStats{std::span<const std::size_t>{}},
               std::invalid_argument);
  const std::array<std::size_t, 1> window = {3};
  const RollingWindowStats empty(window);
  EXPECT_THROW((void)empty.relative_stdev(0), std::logic_error);
}

/// One window rolled on its own: a deque of the window's samples and two
/// running sums, pushing and then dropping the oldest sample.
class SingleWindowRoll {
 public:
  explicit SingleWindowRoll(std::size_t window) : window_(window) {}

  void push(double sample) {
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

  double relative_stdev() const {
    const auto n = static_cast<double>(values_.size());
    const double mean = sum_ / n;
    if (mean == 0.0) return 0.0;
    return std::sqrt(std::max(0.0, sum_sq_ / n - mean * mean)) / mean;
  }

 private:
  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

TEST(RollingWindowStats, EveryWindowMatchesSingleWindowRollBitForBit) {
  // Unsorted on purpose: the history is as long as the longest window
  // wherever it sits.
  const std::array<std::size_t, 5> windows = {24, 3, 100, 7, 1};
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    RollingWindowStats stats(windows);
    std::vector<SingleWindowRoll> rolls(windows.begin(), windows.end());
    for (int i = 0; i < 1500; ++i) {
      // Heavy-tailed samples make the running sums cancel badly, so any
      // reordering of the additions would show in the last bits.
      const double sample = rng.log_normal(16.0, 1.5);
      stats.push(sample);
      for (std::size_t k = 0; k < windows.size(); ++k) {
        rolls[k].push(sample);
        const double got = stats.relative_stdev(k);
        const double want = rolls[k].relative_stdev();
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "push " << i << ", window " << windows[k] << ": " << got
            << " vs " << want;
      }
    }
  }
}

TEST(SlidingWindowMax, ObservedBandwidthSemantics) {
  // 2-sample windows over a history of 3 window means.
  SlidingWindowMax m(2, 3);
  EXPECT_DOUBLE_EQ(m.max(), 0.0);  // no complete window yet
  m.push(10.0);
  EXPECT_DOUBLE_EQ(m.max(), 0.0);
  m.push(20.0);  // window mean 15
  EXPECT_DOUBLE_EQ(m.max(), 15.0);
  m.push(2.0);  // window mean 11
  EXPECT_DOUBLE_EQ(m.max(), 15.0);
  m.push(0.0);
  m.push(0.0);
  m.push(0.0);  // history now {1, 0, 0}: the 15 expired
  EXPECT_DOUBLE_EQ(m.max(), 1.0);
}

TEST(SlidingWindowMax, RejectsZeroConfig) {
  EXPECT_THROW(SlidingWindowMax(0, 1), std::invalid_argument);
  EXPECT_THROW(SlidingWindowMax(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::metrics
