// Synthetic Tor-metrics archive: hourly consensus/descriptor generation.
//
// Runs the relay population hour by hour: each live relay's utilization
// follows a diurnal + AR(1) + burst process; the relay feeds its hourly
// peak throughput into Tor's observed-bandwidth algorithm (max over 5 days)
// and publishes an advertised bandwidth every 18 hours. A TorFlow-style
// consensus weight (advertised x noisy speed ratio) is produced hourly.
//
// The §3.4 speed-test experiment is reproduced by forcing full-capacity
// throughput samples during a configured window (Fig 5).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "analysis/population.h"
#include "sim/random.h"
#include "tor/observed_bandwidth.h"

namespace flashflow::analysis {

struct SnapshotRelay {
  std::size_t pop_index = 0;       // index into the population vector
  double advertised_bits = 0;      // latest published advertised bandwidth
  double consensus_weight = 0;     // unnormalized TorFlow-style weight
  double true_capacity_bits = 0;
};

struct Snapshot {
  std::int64_t hour = 0;
  std::vector<SnapshotRelay> relays;  // live relays only
};

class SyntheticArchive {
 public:
  SyntheticArchive(std::vector<RelaySpec> population, std::uint64_t seed);

  std::int64_t horizon_hours() const { return horizon_hours_; }
  bool done() const { return hour_ >= horizon_hours_; }

  /// Advances one hour and returns that hour's consensus snapshot.
  Snapshot step_hour();

  /// Schedules the §3.4 speed test: every live relay is flooded to
  /// capacity during [start_hour, end_hour).
  void set_speed_test(std::int64_t start_hour, std::int64_t end_hour);

 private:
  struct LiveRelay {
    LiveRelay(std::size_t index, tor::ObservedBandwidth obs)
        : pop_index(index), observed(std::move(obs)) {}

    std::size_t pop_index = 0;
    tor::ObservedBandwidth observed;
    double ar_state = 0.0;       // AR(1) utilization deviation (hours)
    double drift_state = 0.0;    // slow random walk (months)
    double burst_hours_left = 0.0;
    double advertised_bits = 0.0;
    std::int64_t next_publish_hour = 0;
    double ratio_state = 1.0;    // TorFlow speed-ratio AR process
    std::deque<double> advertised_history;  // for the weight lag
  };

  void activate_joiners();
  void deactivate_leavers();

  std::vector<RelaySpec> population_;
  std::vector<std::size_t> join_order_;  // population indices by join hour
  std::size_t next_join_ = 0;
  std::vector<LiveRelay> live_;
  sim::Rng rng_;
  std::int64_t hour_ = 0;
  std::int64_t horizon_hours_ = 0;
  std::int64_t speed_test_start_ = -1;
  std::int64_t speed_test_end_ = -1;
};

}  // namespace flashflow::analysis
