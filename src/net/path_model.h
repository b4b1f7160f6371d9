// Pluggable path-characteristics models (the n x n memory-wall seam).
//
// A PathModel answers "what does the path between hosts a and b look
// like?" — RTT, clean loss, loaded loss — without dictating how the
// answer is stored. Two implementations:
//
//   DensePathModel   three explicit n x n matrices, exactly the storage
//                    the Topology class always had. Byte-exact for every
//                    existing experiment, O(N^2) memory: ~987 MiB of peak
//                    RSS at the paper's 6,419 relays, ~60 GB at a 50k
//                    "future Tor". Right for Table-1/lab topologies and
//                    anything whose paths are individually measured.
//
//   TieredPathModel  implicit per-pair resolution the way Shadow models
//                    its network: each host belongs to a small tier
//                    (region/cluster), paths are a tier x tier
//                    characteristic table plus optional deterministic
//                    per-pair RTT jitter derived from the pair ids and a
//                    seed. O(N + T^2) memory, so a 50k-relay topology
//                    costs kilobytes instead of tens of gigabytes.
//
// Both models resolve a pair in O(1) and answer one bulk query,
// fill_paths(): one virtual call per target per slot on the hot path, and
// a one-entry call for Topology's scalar rtt()/loss().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace flashflow::net {

using HostId = std::size_t;

/// One resolved path: what the measurement pipeline needs to model a TCP
/// stream between two hosts.
struct PathCharacteristics {
  double rtt_s = 0.0;
  double loss = 0.0;
  double loaded_loss = 0.0;
};

/// Path-characteristics interface. Implementations must be symmetric
/// (path(a, b) == path(b, a)) and return all-zero characteristics for
/// a == b (the pipeline treats rtt <= 0 as "co-located").
class PathModel {
 public:
  virtual ~PathModel() = default;

  /// Grows the model to cover hosts [0, count). Called by Topology on
  /// every add_host; models size any per-host state here.
  virtual void resize_hosts(std::size_t count) = 0;
  /// Presizes for `count` hosts (dense: lays the matrices out once).
  virtual void reserve_hosts(std::size_t /*count*/) {}

  /// Resolves the paths from `from` to every host in `to` into `out`
  /// (out.size() must equal to.size()): one virtual call per (target,
  /// slot) on the slot hot path instead of one per pair.
  virtual void fill_paths(HostId from, std::span<const HostId> to,
                          std::span<PathCharacteristics> out) const = 0;
};

/// Today's storage: three dense n x n matrices, row-major over an
/// allocated dimension >= the host count so insertions within a
/// reservation never re-lay them out.
class DensePathModel final : public PathModel {
 public:
  void resize_hosts(std::size_t count) override;
  void reserve_hosts(std::size_t count) override;

  /// Sets symmetric path characteristics (Topology::set_path's storage).
  void set_path(HostId a, HostId b, double rtt_s, double loss_rate,
                double loaded_loss_rate);

  void fill_paths(HostId from, std::span<const HostId> to,
                  std::span<PathCharacteristics> out) const override;

 private:
  std::size_t index(HostId a, HostId b) const { return a * dim_ + b; }
  /// Re-lays the matrices out for `dim` hosts, preserving entries.
  void grow_matrices(std::size_t dim);

  std::size_t hosts_ = 0;
  /// Allocated matrix dimension (>= hosts_).
  std::size_t dim_ = 0;
  std::vector<double> rtt_;
  std::vector<double> loss_;
  std::vector<double> loaded_loss_;
};

/// Parameters of a tiered (sparse/implicit) path model.
struct TieredPathParams {
  /// Number of tiers (clusters/regions); hosts default to tier id % tiers.
  int tiers = 1;
  /// Upper-triangle (including the diagonal) of the tier x tier RTT table
  /// in seconds, row-major: [ (0,0), (0,1), ..., (0,T-1), (1,1), ... ].
  /// Size tiers*(tiers+1)/2. Empty means 0.05 s for every pair (the flat
  /// synthetic-mesh default).
  std::vector<double> tier_rtt_s;
  /// Clean and loaded loss, shared across tiers (the synthetic/shadow
  /// meshes use network-wide constants).
  double loss = 1.0e-6;
  double loaded_loss = 5.0e-5;
  /// Deterministic per-pair RTT jitter: the pair's RTT is scaled by
  /// 1 + rtt_jitter * u with u in [-1, 1) derived from (seed, lo, hi).
  /// 0 disables jitter entirely — pairs then read the exact table value,
  /// bit-identical to a dense model built from the same table.
  double rtt_jitter = 0.0;
  /// Seed of the per-pair jitter stream.
  std::uint64_t seed = 0;

  friend bool operator==(const TieredPathParams&,
                         const TieredPathParams&) = default;
};

/// Shadow-style implicit model: per-host tier assignments plus a small
/// tier x tier characteristic table, pairs resolved on demand.
///
/// Pair resolution is a pure function of (seed, min(a,b), max(a,b)), so
/// values are independent of query order and identical across instances
/// built from the same parameters — the property the golden determinism
/// suite needs from an on-demand model.
class TieredPathModel final : public PathModel {
 public:
  /// Validates params (throws std::invalid_argument): tiers >= 1, RTT
  /// table empty or triangle-sized with non-negative entries, losses in
  /// [0, 1), jitter in [0, 1).
  explicit TieredPathModel(TieredPathParams params);

  /// New hosts join tier (id % tiers) until set_host_tier says otherwise.
  void resize_hosts(std::size_t count) override;

  /// Overrides a host's tier assignment (shadow regions).
  void set_host_tier(HostId host, int tier);

  void fill_paths(HostId from, std::span<const HostId> to,
                  std::span<PathCharacteristics> out) const override;

 private:
  double tier_rtt(int ta, int tb) const;
  /// The deterministic per-pair RTT multiplier (1.0 when jitter is 0).
  double pair_factor(HostId a, HostId b) const;

  TieredPathParams params_;
  /// Dense tiers x tiers RTT table expanded from the triangle.
  std::vector<double> rtt_table_;
  std::vector<std::int32_t> host_tier_;
};

}  // namespace flashflow::net
