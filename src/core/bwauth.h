// The BWAuth coordinator: ties allocation, slots, estimation and retry into
// relay and whole-network measurement campaigns, producing bandwidth files.
#pragma once

#include <cstdint>
#include <span>

#include "core/measurement.h"
#include "core/params.h"
#include "core/team.h"
#include "tor/authority.h"
#include "tor/relay.h"

namespace flashflow::core {

/// A relay as seen by the measurement system.
struct RelayTarget {
  tor::RelayModel model;
  net::HostId host = 0;
  /// Previous capacity estimate z0; 0 marks a new relay (§4.2).
  double previous_estimate_bits = 0;
  TargetBehavior behavior = TargetBehavior::kHonest;
};

class BWAuth {
 public:
  /// `new_relay_prior_bits` is the 75th-percentile capacity used as the
  /// initial guess for new relays (§7 uses 51 Mbit/s from June 2019 data).
  BWAuth(const net::Topology& topo, Params params, Team team,
         double new_relay_prior_bits, std::uint64_t seed);

  struct MeasureResult {
    double estimate_bits = 0;
    int rounds = 0;            // number of slots used (>= 1)
    bool accepted = false;     // §4.2 acceptance condition met
    bool verification_failed = false;
  };

  /// Measures one relay to acceptance: allocate f*z0, run a slot, accept or
  /// double the guess and retry (capped at `max_rounds`).
  MeasureResult measure_relay(const RelayTarget& target, int max_rounds = 8);

  /// Measures every relay and emits a bandwidth file (capacity == weight).
  tor::BandwidthFile measure_network(std::span<const RelayTarget> targets,
                                     int max_rounds = 8);

 private:
  const net::Topology& topo_;
  Params params_;
  Team team_;
  double new_relay_prior_bits_;
  sim::Rng rng_;
};

}  // namespace flashflow::core
