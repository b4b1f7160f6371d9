// The path model: what the path between hosts a and b looks like — RTT,
// clean loss, loaded loss.
//
// It works the way Shadow models its network: every host belongs to one
// tier (a region, a measured vantage point, a path class), and a
// tier x tier table gives each pair of tiers its own characteristics.
// Optional deterministic per-pair RTT jitter, derived from the pair ids
// and a seed, spreads the pairs of one tier pair. Memory is O(hosts +
// tiers^2): a 50k-relay topology costs kilobytes.
//
// Table 1's five hosts take one tier each, so their ten measured pairs
// are the table itself; the §7 shadow network's regions are its tiers; a
// synthetic population's default is one tier, the flat mesh.
//
// Pair resolution is a pure function of (seed, min(a,b), max(a,b)), so
// values are independent of query order and identical across instances
// built from the same table — the property the golden determinism suite
// needs from an on-demand model. The slot hot path asks one bulk query,
// fill_paths(), per target per slot.
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
  /// Clean-path loss seen by a lone well-paced stream (iPerf-style runs).
  double loss = 0.0;
  /// Self-induced congestion loss each socket sees when many parallel
  /// measurement connections push the path hard (governs the Appendix E.1
  /// socket-sweep shape).
  double loaded_loss = 0.0;
};

/// Per-host tiers plus a tier x tier table, pairs resolved on demand.
/// Symmetric (path(a, b) == path(b, a)), and all-zero for a == b (the
/// pipeline treats rtt <= 0 as "co-located").
class PathModel {
 public:
  /// `tier_paths` is the upper triangle (incl. the diagonal) of the
  /// tier x tier table, row-major: [(0,0), (0,1), ..., (0,T-1), (1,1),
  /// ...], tiers*(tiers+1)/2 entries. With `rtt_jitter` > 0 a pair's RTT
  /// is scaled by 1 + rtt_jitter * u, u in [-1, 1) derived from (seed,
  /// lo, hi); 0 reads the exact table values. Throws
  /// std::invalid_argument unless tiers >= 1, the table is triangle-sized
  /// with RTTs >= 0 and losses in [0, 1), and the jitter is in [0, 1).
  PathModel(int tiers, std::span<const PathCharacteristics> tier_paths,
            double rtt_jitter = 0.0, std::uint64_t seed = 0);

  /// Attaches the next host (id = hosts attached so far) to tier
  /// id % tiers, until set_host_tier says otherwise.
  void add_host();

  /// Moves a host to another tier.
  void set_host_tier(HostId host, int tier);

  /// Resolves the paths from `from` to every host in `to` into `out`
  /// (out.size() must equal to.size(); ids must be attached).
  void fill_paths(HostId from, std::span<const HostId> to,
                  std::span<PathCharacteristics> out) const;

 private:
  /// The deterministic per-pair RTT multiplier.
  double pair_factor(HostId a, HostId b) const;

  std::size_t tiers_;
  /// Dense tiers x tiers table expanded from the triangle.
  std::vector<PathCharacteristics> table_;
  double rtt_jitter_;
  std::uint64_t seed_;
  std::vector<std::int32_t> host_tier_;
};

}  // namespace flashflow::net
