// Directory Authorities: aggregating BWAuth measurements into a consensus.
//
// Each DirAuth trusts one BWAuth; the DirAuths place the *median* of the
// BWAuths' per-relay values into the consensus (§4 "Trust and Diversity").
// The median is what makes part-time capacity provisioning and single-
// BWAuth compromise ineffective (§5).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/time.h"

namespace flashflow::tor {

/// One relay's line in a consensus: its load-balancing weight (unitless,
/// relative).
struct ConsensusEntry {
  std::string fingerprint;
  double weight = 0.0;
};

/// The hourly network consensus the Directory Authorities publish.
struct Consensus {
  sim::SimTime valid_after = 0;
  std::vector<ConsensusEntry> entries;
};

/// One BWAuth's output for one relay. TorFlow-style systems produce only
/// weights (capacity_bits == 0); FlashFlow produces true capacity estimates
/// as well (Table 2 "Capacity Values?" column).
struct BandwidthFileEntry {
  std::string fingerprint;
  double weight = 0.0;
  double capacity_bits = 0.0;
};

using BandwidthFile = std::vector<BandwidthFileEntry>;

/// Builds a consensus from several BWAuths' bandwidth files: for each relay
/// appearing in a majority of files, the consensus weight is the median of
/// the per-file weights. Relays in fewer than a majority of files are
/// excluded (unmeasured relays are not used by clients).
Consensus build_consensus(sim::SimTime valid_after,
                          std::span<const BandwidthFile> files);

/// Median capacity across bandwidth files for a relay; 0 if absent.
double median_capacity(std::span<const BandwidthFile> files,
                       const std::string& fingerprint);

}  // namespace flashflow::tor
