#include "analysis/archive.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace flashflow::analysis {

namespace {
// Measurement circuits cannot exceed this download speed regardless of the
// relay's capacity (scanner/helper bottlenecks); compresses the TorFlow
// speed ratio on fast relays.
constexpr double kTorFlowSpeedCeilingBits = 50e6;
// TorFlow measurement staleness: consensus weights use the advertised
// bandwidth from this many hours ago. This is why Fig 5's weight error
// *rises* during the speed test: capacity estimates improve before the
// weights catch up.
constexpr std::int64_t kWeightLagHours = 120;
}  // namespace

SyntheticArchive::SyntheticArchive(std::vector<RelaySpec> population,
                                   std::uint64_t seed)
    : population_(std::move(population)), rng_(seed) {
  join_order_.resize(population_.size());
  for (std::size_t i = 0; i < population_.size(); ++i) join_order_[i] = i;
  std::sort(join_order_.begin(), join_order_.end(),
            [this](std::size_t a, std::size_t b) {
              return population_[a].join_hour < population_[b].join_hour;
            });
  for (const auto& r : population_)
    horizon_hours_ = std::max(horizon_hours_, r.leave_hour);
}

void SyntheticArchive::set_speed_test(std::int64_t start_hour,
                                      std::int64_t end_hour) {
  speed_test_start_ = start_hour;
  speed_test_end_ = end_hour;
}

void SyntheticArchive::activate_joiners() {
  while (next_join_ < join_order_.size() &&
         population_[join_order_[next_join_]].join_hour <= hour_) {
    const std::size_t idx = join_order_[next_join_++];
    if (population_[idx].leave_hour <= hour_) continue;  // zero-length life
    LiveRelay lr(idx, tor::ObservedBandwidth::archive_hourly());
    lr.next_publish_hour = hour_;
    live_.push_back(std::move(lr));
  }
}

void SyntheticArchive::deactivate_leavers() {
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [this](const LiveRelay& lr) {
                               return population_[lr.pop_index].leave_hour <=
                                      hour_;
                             }),
              live_.end());
}

Snapshot SyntheticArchive::step_hour() {
  activate_joiners();
  deactivate_leavers();

  const bool speed_test_active =
      hour_ >= speed_test_start_ && hour_ < speed_test_end_;

  Snapshot snap;
  snap.hour = hour_;
  snap.relays.reserve(live_.size());
  for (auto& lr : live_) {
    const RelaySpec& spec = population_[lr.pop_index];

    // Hourly utilization: diurnal + AR(1) deviation + occasional bursts.
    const double hour_of_day = static_cast<double>(hour_ % 24);
    const double diurnal =
        spec.diurnal_amplitude *
        std::sin(2.0 * std::numbers::pi * (hour_of_day - 6.0) / 24.0);
    lr.ar_state = 0.9 * lr.ar_state + rng_.normal(0.0, spec.noise_sigma);
    // Months-timescale demand drift: clients gradually discover (or
    // abandon) a relay, so the utilization level wanders over the year.
    lr.drift_state =
        0.9995 * lr.drift_state + rng_.normal(0.0, spec.drift_sigma);
    if (lr.burst_hours_left <= 0.0 && rng_.chance(spec.burst_prob_per_hour))
      lr.burst_hours_left = rng_.uniform(1.0, 3.0);
    double utilization = std::clamp(
        spec.base_utilization + diurnal + lr.ar_state + lr.drift_state, 0.0,
        1.0);
    if (lr.burst_hours_left > 0.0) {
      utilization = std::max(utilization, rng_.uniform(0.85, 1.0));
      lr.burst_hours_left -= 1.0;
    }

    // Hourly peak throughput sample fed to the observed-bandwidth
    // estimator: short bursts within the hour exceed the hourly mean a
    // little, but an under-utilized relay's peak stays well below capacity.
    const double effective_cap =
        spec.rate_limit_bits > 0.0
            ? std::min(spec.capacity_bits, spec.rate_limit_bits)
            : spec.capacity_bits;
    double peak = std::min(effective_cap, effective_cap * utilization *
                                              rng_.uniform(1.02, 1.15));
    if (speed_test_active) peak = effective_cap * rng_.uniform(0.95, 1.0);
    lr.observed.record(peak);

    // Descriptor publication every 18 hours. Real advertised bandwidths
    // fluctuate well beyond the pure 5-day-max algorithm (Appendix A finds
    // a median per-relay RSD of 32% even within a day); the reporting
    // noise models read/write-history asymmetries and load swings between
    // publications.
    if (hour_ >= lr.next_publish_hour) {
      // Reporting noise reflects load fluctuation between publications;
      // while the speed-test flood pins the 5-day maximum at capacity
      // (and for the 5 days it stays in history), successive descriptors
      // agree much more closely.
      double span = spec.publish_noise_span;
      const bool flood_in_history =
          speed_test_start_ >= 0 && hour_ >= speed_test_start_ &&
          hour_ < speed_test_end_ + 5 * 24;
      if (flood_in_history) span *= 0.25;
      lr.advertised_bits =
          tor::advertised_bandwidth(lr.observed.observed_bits(),
                                    spec.rate_limit_bits) *
          (1.0 - rng_.uniform(0.0, span));
      lr.next_publish_hour = hour_ + 18;
    }

    // TorFlow measurement-noise process: slowly wandering multiplicative
    // noise on the measured download speed.
    lr.ratio_state = std::clamp(
        0.8 * lr.ratio_state + 0.2 * rng_.log_normal(0.0, 0.45), 0.05, 5.0);

    // Consensus weights use a stale advertised value (TorFlow takes days
    // to re-measure the network).
    lr.advertised_history.push_back(lr.advertised_bits);
    if (static_cast<std::int64_t>(lr.advertised_history.size()) >
        kWeightLagHours + 1)
      lr.advertised_history.pop_front();
    const double lagged_advertised = lr.advertised_history.front();

    if (lr.advertised_bits > 0.0) {
      SnapshotRelay sr;
      sr.pop_index = lr.pop_index;
      sr.advertised_bits = lr.advertised_bits;
      // Speed measured through the relay: proportional to its bandwidth,
      // times measurement noise, saturating at the measurement circuit's
      // ceiling (scanner and helper-relay bottlenecks keep download speeds
      // from scaling linearly on fast relays). The final TorFlow ratio
      // (speed / mean speed) is applied below once the mean is known.
      sr.consensus_weight = std::min(lagged_advertised * lr.ratio_state,
                                     kTorFlowSpeedCeilingBits);
      sr.true_capacity_bits = effective_cap;
      snap.relays.push_back(sr);
    }
  }

  // TorFlow's weight = advertised * (measured speed / mean measured speed).
  // Fast relays have above-mean speeds (ratio > 1) and slow relays below
  // (ratio < 1), so weight grows ~quadratically in bandwidth — this is why
  // most relays end up under-weighted while a few fast ones absorb the
  // weight mass (Fig 3).
  if (!snap.relays.empty()) {
    double mean_speed = 0.0;
    for (const auto& sr : snap.relays) mean_speed += sr.consensus_weight;
    mean_speed /= static_cast<double>(snap.relays.size());
    if (mean_speed > 0.0) {
      for (auto& sr : snap.relays) {
        const double ratio = sr.consensus_weight / mean_speed;
        sr.consensus_weight = sr.advertised_bits * ratio;
      }
    }
  }
  ++hour_;
  return snap;
}

}  // namespace flashflow::analysis
