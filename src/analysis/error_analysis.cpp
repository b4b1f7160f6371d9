#include "analysis/error_analysis.h"

#include <cmath>

#include "metrics/error_metrics.h"

namespace flashflow::analysis {

namespace {

/// The row for `pop_index`, growing the table to reach it.
template <typename Track>
Track& row(std::vector<Track>& tracks, std::size_t pop_index) {
  if (pop_index >= tracks.size()) tracks.resize(pop_index + 1);
  return tracks[pop_index];
}

/// sum / count for window `w` of every row with at least one sample, in
/// pop_index order.
template <typename Track>
std::vector<double> per_relay_means(const std::vector<Track>& tracks,
                                    std::array<double, 4> Track::*sum,
                                    std::array<std::int64_t, 4> Track::*count,
                                    Window w) {
  const auto wi = static_cast<std::size_t>(w);
  std::vector<double> out;
  for (const Track& track : tracks)
    if ((track.*count)[wi] > 0)
      out.push_back((track.*sum)[wi] /
                    static_cast<double>((track.*count)[wi]));
  return out;
}

}  // namespace

// ------------------------------------------------------ capacity & weight

void ErrorAnalysis::observe(const Snapshot& snapshot) {
  const bool sample = observed_hours_ % kSampleStrideHours == 0;
  ++observed_hours_;

  // First pass: push maxima, sample RCE, and sum what NCE and Cbar need.
  double sum_adv = 0.0;
  double total_weight = 0.0;
  std::array<double, 4> total_cap{};
  for (const auto& relay : snapshot.relays) {
    Track& track = row(tracks_, relay.pop_index);
    track.max_adv.push(relay.advertised_bits);
    sum_adv += relay.advertised_bits;
    total_weight += relay.consensus_weight;
    for (std::size_t w = 0; w < 4; ++w) {
      const double cap = track.max_adv.max(kWindowHours[w]);
      track.capacity[w] = cap;
      total_cap[w] += cap;
      if (sample && cap > 0.0) {
        track.rce_sum[w] +=
            metrics::relay_capacity_error(relay.advertised_bits, cap);
        ++track.rce_count[w];
      }
    }
  }
  for (std::size_t w = 0; w < 4; ++w)
    nce_[w].push_back(total_cap[w] > 0.0 ? 1.0 - sum_adv / total_cap[w]
                                         : 0.0);
  if (total_weight <= 0.0) return;

  // Second pass: RWE per relay, NWE accumulation.
  std::array<double, 4> tv{};
  for (const auto& relay : snapshot.relays) {
    Track& track = tracks_[relay.pop_index];
    const double w_norm = relay.consensus_weight / total_weight;
    for (std::size_t w = 0; w < 4; ++w) {
      if (total_cap[w] <= 0.0) continue;
      const double c_norm = track.capacity[w] / total_cap[w];
      tv[w] += std::abs(w_norm - c_norm);
      if (sample && c_norm > 0.0) {
        track.rwe_sum[w] += metrics::relay_weight_error(w_norm, c_norm);
        ++track.rwe_count[w];
      }
    }
  }
  for (std::size_t w = 0; w < 4; ++w) nwe_[w].push_back(tv[w] / 2.0);
}

std::vector<double> ErrorAnalysis::mean_rce_per_relay(Window w) const {
  return per_relay_means(tracks_, &Track::rce_sum, &Track::rce_count, w);
}

const std::vector<double>& ErrorAnalysis::nce_series(Window w) const {
  return nce_[static_cast<std::size_t>(w)];
}

std::vector<double> ErrorAnalysis::mean_rwe_per_relay(Window w) const {
  return per_relay_means(tracks_, &Track::rwe_sum, &Track::rwe_count, w);
}

const std::vector<double>& ErrorAnalysis::nwe_series(Window w) const {
  return nwe_[static_cast<std::size_t>(w)];
}

// --------------------------------------------------------------- variation

void VariationAnalysis::observe(const Snapshot& snapshot) {
  const bool sample = observed_hours_ % kSampleStrideHours == 0;
  ++observed_hours_;

  double total_weight = 0.0;
  for (const auto& relay : snapshot.relays)
    total_weight += relay.consensus_weight;
  if (total_weight <= 0.0) return;

  for (const auto& relay : snapshot.relays) {
    Track& track = row(tracks_, relay.pop_index);
    track.adv.push(relay.advertised_bits);
    track.weight.push(relay.consensus_weight / total_weight);
    if (!sample) continue;
    for (std::size_t w = 0; w < 4; ++w) {
      if (track.adv.count(w) < 2) continue;
      track.adv_rsd_sum[w] += track.adv.relative_stdev(w);
      track.weight_rsd_sum[w] += track.weight.relative_stdev(w);
      ++track.count[w];
    }
  }
}

std::vector<double> VariationAnalysis::mean_advertised_rsd_per_relay(
    Window w) const {
  return per_relay_means(tracks_, &Track::adv_rsd_sum, &Track::count, w);
}

std::vector<double> VariationAnalysis::mean_weight_rsd_per_relay(
    Window w) const {
  return per_relay_means(tracks_, &Track::weight_rsd_sum, &Track::count, w);
}

}  // namespace flashflow::analysis
