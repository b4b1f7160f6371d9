#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace flashflow::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  EXPECT_NE(r(), 0ULL);  // SplitMix expansion avoids the all-zero state
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng r(17);
  EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntWideRangesStayInRange) {
  // Spans wider than INT64_MAX: the span and the offset must be computed
  // unsigned (signed hi - lo overflows here, which UBSan reports).
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(19);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(kMin, kMax);
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  bool saw_upper_half = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, kMax);
    EXPECT_GE(v, -5);
    saw_upper_half |= v > kMax / 2;
  }
  EXPECT_TRUE(saw_upper_half);
}

TEST(Rng, UniformIntThrowsOnBadRange) {
  Rng r(17);
  EXPECT_THROW(r.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ChanceEdges) {
  Rng r(19);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-0.5));
  EXPECT_TRUE(r.chance(1.5));
}

TEST(Rng, ChanceFrequency) {
  Rng r(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(29);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(29);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(31);
  double sum = 0, sum_sq = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LogNormalIsPositive) {
  Rng r(37);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.log_normal(0.0, 1.0), 0.0);
}

TEST(Rng, ParetoRespectsScale) {
  Rng r(41);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng r(41);
  EXPECT_THROW(r.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng r(43);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.weighted_index(weights) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Rng r(47);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(r.weighted_index(weights), 1u);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng r(47);
  std::vector<double> empty;
  std::vector<double> negative = {1.0, -1.0};
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(r.weighted_index(empty), std::invalid_argument);
  EXPECT_THROW(r.weighted_index(negative), std::invalid_argument);
  EXPECT_THROW(r.weighted_index(zeros), std::invalid_argument);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(99);
  Rng a = parent.fork("a");
  Rng b = parent.fork("b");
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(99), p2(99);
  Rng a1 = p1.fork("x");
  Rng a2 = p2.fork("x");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a1(), a2());
}

TEST(Rng, HashForkMatchesStringFork) {
  // The hot-path overload must derive the identical substream: forking on
  // a precomputed hash is a pure optimization, never a behavior change.
  Rng p1(20210613), p2(20210613);
  Rng by_string = p1.fork("relay-7/noise");
  Rng by_hash = p2.fork(hash_tag("relay-7/noise"));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(by_string(), by_hash());
}

TEST(HashTag, StableAndDistinct) {
  EXPECT_EQ(hash_tag("abc"), hash_tag("abc"));
  EXPECT_NE(hash_tag("abc"), hash_tag("abd"));
}

TEST(HashTag, BasisOverloadComposesConcatenation) {
  // hash_tag(b, hash_tag(a)) == hash_tag(a + b): lets hot loops hash a
  // stable prefix once and append per-use suffixes without building
  // strings (SlotRunner's per-target "/noise" fork).
  EXPECT_EQ(hash_tag("/noise", hash_tag("relay-42")),
            hash_tag("relay-42/noise"));
  EXPECT_EQ(hash_tag("", hash_tag("x")), hash_tag("x"));
  EXPECT_EQ(hash_tag("xyz", hash_tag("")), hash_tag("xyz"));
}

TEST(Rng, NormalFillMatchesSequentialNormalCalls) {
  // The batched gaussian path must be bit-identical to call-at-a-time
  // normal(): same values, same raw-draw consumption, including the
  // Box-Muller pair cache carrying across batch boundaries. Odd sizes
  // exercise the cache-in/cache-out edges.
  for (const std::size_t count : {0u, 1u, 2u, 5u, 8u, 33u}) {
    Rng sequential(77);
    Rng batched(77);
    std::vector<double> expected(count);
    for (double& v : expected) v = sequential.normal();
    std::vector<double> filled(count);
    batched.normal_fill(filled);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(filled[i], expected[i]) << "count=" << count << " i=" << i;
    // Both generators must resume in lockstep (same cache, same state).
    EXPECT_EQ(batched.normal(), sequential.normal());
    EXPECT_EQ(batched(), sequential());
  }
}

TEST(Rng, NormalFillConsumesPrimedCacheFirst) {
  Rng sequential(123);
  Rng batched(123);
  // Prime both pair caches, then batch on one and iterate on the other.
  EXPECT_EQ(batched.normal(), sequential.normal());
  std::vector<double> expected(7);
  for (double& v : expected) v = sequential.normal();
  std::vector<double> filled(7);
  batched.normal_fill(filled);
  for (std::size_t i = 0; i < filled.size(); ++i)
    EXPECT_EQ(filled[i], expected[i]);
  EXPECT_EQ(batched.uniform(), sequential.uniform());
}

TEST(Rng, NormalFillInterleavesWithOtherDraws) {
  // Mixed workloads (the slot pipeline interleaves uniforms, chance and
  // gaussian batches on one stream) must see the same stream either way.
  Rng a(9), b(9);
  std::vector<double> batch(3);
  a.normal_fill(batch);
  EXPECT_EQ(a.uniform(), [&] {
    b.normal();
    b.normal();
    b.normal();
    return b.uniform();
  }());
}

}  // namespace
}  // namespace flashflow::sim
