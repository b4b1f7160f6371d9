#include "net/path_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/random.h"

namespace flashflow::net {

// --------------------------------------------------------- DensePathModel ---

void DensePathModel::resize_hosts(std::size_t count) {
  hosts_ = count;
  // Geometric growth keeps unreserved host-by-host construction linear in
  // matrix traffic overall instead of re-laying three n x n matrices out
  // on every insertion.
  if (count > dim_) grow_matrices(std::max(count, dim_ * 2));
}

void DensePathModel::reserve_hosts(std::size_t count) {
  if (count > dim_) grow_matrices(count);
}

void DensePathModel::grow_matrices(std::size_t dim) {
  const std::size_t old_dim = dim_;
  const auto grow = [dim, old_dim](std::vector<double>& m) {
    std::vector<double> next(dim * dim, 0.0);
    for (std::size_t a = 0; a < old_dim; ++a)
      for (std::size_t b = 0; b < old_dim; ++b)
        next[a * dim + b] = m[a * old_dim + b];
    m = std::move(next);
  };
  grow(rtt_);
  grow(loss_);
  grow(loaded_loss_);
  dim_ = dim;
}

void DensePathModel::set_path(HostId a, HostId b, double rtt_s,
                              double loss_rate, double loaded_loss_rate) {
  rtt_[index(a, b)] = rtt_s;
  rtt_[index(b, a)] = rtt_s;
  loss_[index(a, b)] = loss_rate;
  loss_[index(b, a)] = loss_rate;
  loaded_loss_[index(a, b)] = loaded_loss_rate;
  loaded_loss_[index(b, a)] = loaded_loss_rate;
}

void DensePathModel::fill_paths(HostId from, std::span<const HostId> to,
                                std::span<PathCharacteristics> out) const {
  const double* rtt_row = rtt_.data() + from * dim_;
  const double* loss_row = loss_.data() + from * dim_;
  const double* loaded_row = loaded_loss_.data() + from * dim_;
  for (std::size_t i = 0; i < to.size(); ++i) {
    out[i].rtt_s = rtt_row[to[i]];
    out[i].loss = loss_row[to[i]];
    out[i].loaded_loss = loaded_row[to[i]];
  }
}

// -------------------------------------------------------- TieredPathModel ---

TieredPathModel::TieredPathModel(TieredPathParams params)
    : params_(std::move(params)) {
  if (params_.tiers < 1)
    throw std::invalid_argument("TieredPathModel: tiers must be >= 1");
  const std::size_t tiers = static_cast<std::size_t>(params_.tiers);
  const std::size_t triangle = tiers * (tiers + 1) / 2;
  if (!params_.tier_rtt_s.empty() && params_.tier_rtt_s.size() != triangle)
    throw std::invalid_argument(
        "TieredPathModel: tier_rtt_s needs tiers*(tiers+1)/2 = " +
        std::to_string(triangle) + " entries (upper triangle incl. "
        "diagonal), got " + std::to_string(params_.tier_rtt_s.size()));
  for (const double rtt : params_.tier_rtt_s)
    if (rtt < 0.0)
      throw std::invalid_argument("TieredPathModel: tier RTTs must be >= 0");
  if (params_.loss < 0.0 || params_.loss >= 1.0 ||
      params_.loaded_loss < 0.0 || params_.loaded_loss >= 1.0)
    throw std::invalid_argument(
        "TieredPathModel: loss rates must be in [0, 1)");
  if (params_.rtt_jitter < 0.0 || params_.rtt_jitter >= 1.0)
    throw std::invalid_argument(
        "TieredPathModel: rtt_jitter must be in [0, 1)");

  // Expand the upper triangle into a dense tiers x tiers table so pair
  // resolution is one multiply-add away from the answer.
  rtt_table_.assign(tiers * tiers, 0.05);
  if (!params_.tier_rtt_s.empty()) {
    std::size_t k = 0;
    for (std::size_t a = 0; a < tiers; ++a) {
      for (std::size_t b = a; b < tiers; ++b, ++k) {
        rtt_table_[a * tiers + b] = params_.tier_rtt_s[k];
        rtt_table_[b * tiers + a] = params_.tier_rtt_s[k];
      }
    }
  }
}

void TieredPathModel::resize_hosts(std::size_t count) {
  const std::size_t old = host_tier_.size();
  host_tier_.resize(count);
  for (std::size_t h = old; h < count; ++h)
    host_tier_[h] = static_cast<std::int32_t>(
        h % static_cast<std::size_t>(params_.tiers));
}

void TieredPathModel::set_host_tier(HostId host, int tier) {
  if (host >= host_tier_.size())
    throw std::out_of_range("TieredPathModel::set_host_tier: bad host id");
  if (tier < 0 || tier >= params_.tiers)
    throw std::invalid_argument(
        "TieredPathModel::set_host_tier: tier out of range");
  host_tier_[host] = tier;
}

double TieredPathModel::tier_rtt(int ta, int tb) const {
  return rtt_table_[static_cast<std::size_t>(ta) *
                        static_cast<std::size_t>(params_.tiers) +
                    static_cast<std::size_t>(tb)];
}

double TieredPathModel::pair_factor(HostId a, HostId b) const {
  if (params_.rtt_jitter <= 0.0) return 1.0;
  // Pure function of (seed, min, max): the pair ids are mixed into a
  // domain-separated seed (sim::hash_tag) and pushed through one
  // SplitMix64 step. No state is carried between queries, so the value a
  // pair resolves to cannot depend on what was queried before it.
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  std::uint64_t state = params_.seed ^ sim::hash_tag("net/tiered-path");
  state ^= (lo + 1) * 0x9E3779B97F4A7C15ULL;
  state ^= (hi + 1) * 0xC2B2AE3D27D4EB4FULL;
  const std::uint64_t bits = sim::splitmix64(state);
  // 53 uniform bits -> u in [-1, 1).
  const double u = 2.0 * static_cast<double>(bits >> 11) * 0x1.0p-53 - 1.0;
  return 1.0 + params_.rtt_jitter * u;
}

// FF_HOT_BEGIN: bulk path resolution — one call per (target, slot) from
// the slot hot path; must stay pure table reads plus the stateless
// per-pair jitter hash (ffcheck guards the region).
void TieredPathModel::fill_paths(HostId from, std::span<const HostId> to,
                                 std::span<PathCharacteristics> out) const {
  const std::int32_t from_tier = host_tier_[from];
  for (std::size_t i = 0; i < to.size(); ++i) {
    const HostId b = to[i];
    if (b == from) {
      out[i] = PathCharacteristics{};  // co-located, like a dense diagonal
      continue;
    }
    const double base = tier_rtt(from_tier, host_tier_[b]);
    out[i].rtt_s =
        params_.rtt_jitter <= 0.0 ? base : base * pair_factor(from, b);
    out[i].loss = params_.loss;
    out[i].loaded_loss = params_.loaded_loss;
  }
}
// FF_HOT_END: bulk path resolution

}  // namespace flashflow::net
