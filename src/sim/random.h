// Deterministic random number generation for simulations.
//
// Every stochastic component takes an explicit Rng (or a seed) so that whole
// experiments replay identically. The generator is xoshiro256**, seeded via
// SplitMix64, which is fast, high quality, and trivially forkable into
// independent substreams.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace flashflow::sim {

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Deliberately not a <random> UniformRandomBitGenerator: the helpers below
/// are the only distributions, so draws replay identically across
/// standard-library implementations.
class Rng {
 public:
  /// Seeds the generator deterministically from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  std::uint64_t operator()();

  /// Creates an independent substream; deterministic in (parent seed, tag).
  /// Use to give each simulated component its own stream so that adding a
  /// component does not perturb the draws seen by others.
  Rng fork(std::string_view tag) const;

  /// Hash-tag fork: identical to fork(tag) when `tag_hash == hash_tag(tag)`,
  /// but takes the precomputed hash so hot loops can fork per-component
  /// substreams without building a tag string (see hash_tag's basis
  /// overload for composing "name/suffix" tags incrementally).
  Rng fork(std::uint64_t tag_hash) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);
  /// Exponential with given mean (mean > 0).
  double exponential(double mean);
  /// Standard normal via Box-Muller (cached pair).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Fills `out` with standard normals: bit-identical values, in the same
  /// order and consuming the same raw draws, as out.size() successive
  /// normal() calls (the Box-Muller pair cache carries across batches).
  /// Hot loops that need a known number of gaussians — e.g. a slot's
  /// per-second jitter series — batch them here so the transcendentals
  /// (log/sqrt/sincos per pair) run back to back in one tight loop at
  /// setup instead of being scattered through the per-second simulation.
  void normal_fill(std::span<double> out);
  /// Log-normal: exp(N(mu, sigma)).
  double log_normal(double mu, double sigma);
  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);
  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Requires a non-empty vector with non-negative entries and positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  /// One Box-Muller pair from two fresh uniforms (no cache interaction).
  std::pair<double, double> normal_pair();

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// SplitMix64 step; exposed for seeding/hashing use in tests.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a string, for deriving substream seeds.
std::uint64_t hash_tag(std::string_view tag);

/// Continues an FNV-1a hash from `basis` (a previous hash_tag result), so
/// hash_tag(b, hash_tag(a)) == hash_tag(a + b) without concatenating. Lets
/// hot paths precompute the hash of a stable prefix (e.g. a relay name)
/// and append a suffix tag per use with no string allocation.
std::uint64_t hash_tag(std::string_view tag, std::uint64_t basis);

}  // namespace flashflow::sim
