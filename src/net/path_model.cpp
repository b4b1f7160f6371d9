#include "net/path_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/random.h"

namespace flashflow::net {

namespace {

std::size_t checked_tiers(int tiers) {
  if (tiers < 1) throw std::invalid_argument("PathModel: tiers must be >= 1");
  return static_cast<std::size_t>(tiers);
}

}  // namespace

PathModel::PathModel(int tiers, std::span<const PathCharacteristics> tier_paths,
                     double rtt_jitter, std::uint64_t seed)
    : tiers_(checked_tiers(tiers)), rtt_jitter_(rtt_jitter), seed_(seed) {
  const std::size_t triangle = tiers_ * (tiers_ + 1) / 2;
  if (tier_paths.size() != triangle)
    throw std::invalid_argument(
        "PathModel: the tier table needs tiers*(tiers+1)/2 = " +
        std::to_string(triangle) + " entries (upper triangle incl. "
        "diagonal), got " + std::to_string(tier_paths.size()));
  const auto bad_loss = [](double loss) { return loss < 0.0 || loss >= 1.0; };
  for (const PathCharacteristics& path : tier_paths) {
    if (path.rtt_s < 0.0)
      throw std::invalid_argument("PathModel: tier RTTs must be >= 0");
    if (bad_loss(path.loss) || bad_loss(path.loaded_loss))
      throw std::invalid_argument("PathModel: loss rates must be in [0, 1)");
  }
  if (rtt_jitter_ < 0.0 || rtt_jitter_ >= 1.0)
    throw std::invalid_argument("PathModel: rtt_jitter must be in [0, 1)");

  // Expand the upper triangle into a dense tiers x tiers table so pair
  // resolution is one multiply-add away from the answer.
  table_.resize(tiers_ * tiers_);
  std::size_t k = 0;
  for (std::size_t a = 0; a < tiers_; ++a) {
    for (std::size_t b = a; b < tiers_; ++b, ++k) {
      table_[a * tiers_ + b] = tier_paths[k];
      table_[b * tiers_ + a] = tier_paths[k];
    }
  }
}

void PathModel::add_host() {
  host_tier_.push_back(
      static_cast<std::int32_t>(host_tier_.size() % tiers_));
}

void PathModel::set_host_tier(HostId host, int tier) {
  if (host >= host_tier_.size())
    throw std::out_of_range("PathModel::set_host_tier: bad host id");
  if (tier < 0 || static_cast<std::size_t>(tier) >= tiers_)
    throw std::invalid_argument("PathModel::set_host_tier: tier out of range");
  host_tier_[host] = tier;
}

double PathModel::pair_factor(HostId a, HostId b) const {
  // Pure function of (seed, min, max): the pair ids are mixed into a
  // domain-separated seed (sim::hash_tag) and pushed through one
  // SplitMix64 step. No state is carried between queries, so the value a
  // pair resolves to cannot depend on what was queried before it.
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  std::uint64_t state = seed_ ^ sim::hash_tag("net/tiered-path");
  state ^= (lo + 1) * 0x9E3779B97F4A7C15ULL;
  state ^= (hi + 1) * 0xC2B2AE3D27D4EB4FULL;
  const std::uint64_t bits = sim::splitmix64(state);
  // 53 uniform bits -> u in [-1, 1).
  const double u = 2.0 * static_cast<double>(bits >> 11) * 0x1.0p-53 - 1.0;
  return 1.0 + rtt_jitter_ * u;
}

// FF_HOT_BEGIN: bulk path resolution — one call per (target, slot) from
// the slot hot path; must stay pure table reads plus the stateless
// per-pair jitter hash (ffcheck guards the region).
void PathModel::fill_paths(HostId from, std::span<const HostId> to,
                           std::span<PathCharacteristics> out) const {
  const PathCharacteristics* row =
      table_.data() + static_cast<std::size_t>(host_tier_[from]) * tiers_;
  for (std::size_t i = 0; i < to.size(); ++i) {
    const HostId b = to[i];
    if (b == from) {
      out[i] = PathCharacteristics{};  // co-located
      continue;
    }
    out[i] = row[static_cast<std::size_t>(host_tier_[b])];
    if (rtt_jitter_ > 0.0) out[i].rtt_s *= pair_factor(from, b);
  }
}
// FF_HOT_END: bulk path resolution

}  // namespace flashflow::net
