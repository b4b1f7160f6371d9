#include "sim/random.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace flashflow::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_tag(std::string_view tag) {
  return hash_tag(tag, 0xcbf29ce484222325ULL);
}

std::uint64_t hash_tag(std::string_view tag, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 expansion guarantees a non-zero state even for seed == 0.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::string_view tag) const { return fork(hash_tag(tag)); }

Rng Rng::fork(std::uint64_t tag_hash) const {
  // Combine current state with the tag hash; the copy advances so forks from
  // the same parent with different tags are independent.
  std::uint64_t seed = state_[0] ^ rotl(state_[3], 13) ^ tag_hash;
  return Rng(seed);
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  // The span and the offset are unsigned: hi - lo overflows std::int64_t
  // for any range wider than INT64_MAX, and so may lo + offset.
  const auto first = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - first + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % range;
  std::uint64_t draw{};
  do {
    draw = (*this)();
  } while (draw >= limit);
  return static_cast<std::int64_t>(first + draw % range);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential: mean <= 0");
  double u{};
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::pair<double, double> Rng::normal_pair() {
  double u1{};
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  // sin and cos of the same angle: the compiler fuses these into one
  // sincos call on libm targets (an exact transform, so the values stay
  // bit-identical to separate calls).
  return {radius * std::cos(theta), radius * std::sin(theta)};
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const auto [first, second] = normal_pair();
  cached_normal_ = second;
  has_cached_normal_ = true;
  return first;
}

void Rng::normal_fill(std::span<double> out) {
  std::size_t i = 0;
  if (i < out.size() && has_cached_normal_) {
    has_cached_normal_ = false;
    out[i++] = cached_normal_;
  }
  while (i + 2 <= out.size()) {
    const auto [first, second] = normal_pair();
    out[i++] = first;
    out[i++] = second;
  }
  if (i < out.size()) {
    const auto [first, second] = normal_pair();
    out[i] = first;
    cached_normal_ = second;
    has_cached_normal_ = true;
  }
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::log_normal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double xm, double alpha) {
  if (xm <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument("pareto: xm and alpha must be positive");
  double u{};
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("weighted_index: empty");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("weighted_index: negative");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("weighted_index: zero total weight");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: last positive entry
}

}  // namespace flashflow::sim
