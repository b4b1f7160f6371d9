#include "analysis/error_analysis.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "metrics/error_metrics.h"

namespace flashflow::analysis {

namespace {
template <typename TrackMap, typename MakeTrack>
typename TrackMap::mapped_type& track_for(TrackMap& tracks, std::size_t id,
                                          MakeTrack make) {
  auto it = tracks.find(id);
  if (it == tracks.end()) it = tracks.emplace(id, make()).first;
  return it->second;
}
}  // namespace

// ---------------------------------------------------------------- capacity

void CapacityErrorAnalysis::observe(const Snapshot& snapshot) {
  const bool sample = observed_hours_ % kSampleStrideHours == 0;
  double sum_adv = 0.0;
  std::array<double, 4> sum_max{};

  for (const auto& relay : snapshot.relays) {
    auto& track = track_for(tracks_, relay.pop_index, [] {
      Track t;
      for (std::size_t w = 0; w < 4; ++w)
        t.max_adv[w] = std::make_unique<metrics::TrailingMax>(
            static_cast<std::size_t>(kWindowHours[w]));
      return t;
    });
    for (std::size_t w = 0; w < 4; ++w)
      track.max_adv[w]->push(relay.advertised_bits);

    sum_adv += relay.advertised_bits;
    for (std::size_t w = 0; w < 4; ++w) {
      const double cap = track.max_adv[w]->max();
      sum_max[w] += cap;
      if (sample && cap > 0.0) {
        track.rce_sum[w] +=
            metrics::relay_capacity_error(relay.advertised_bits, cap);
        ++track.rce_count[w];
      }
    }
  }

  for (std::size_t w = 0; w < 4; ++w)
    nce_[w].push_back(sum_max[w] > 0.0 ? 1.0 - sum_adv / sum_max[w] : 0.0);
  ++observed_hours_;
}

std::vector<double> CapacityErrorAnalysis::mean_rce_per_relay(
    Window w) const {
  const auto wi = static_cast<std::size_t>(w);
  std::vector<double> out;
  out.reserve(tracks_.size());
  for (const auto& [id, track] : tracks_) {
    (void)id;
    if (track.rce_count[wi] > 0)
      out.push_back(track.rce_sum[wi] /
                    static_cast<double>(track.rce_count[wi]));
  }
  return out;
}

const std::vector<double>& CapacityErrorAnalysis::nce_series(Window w) const {
  return nce_[static_cast<std::size_t>(w)];
}

// ------------------------------------------------------------------ weight

void WeightErrorAnalysis::observe(const Snapshot& snapshot) {
  const bool sample = observed_hours_ % kSampleStrideHours == 0;

  double total_weight = 0.0;
  for (const auto& relay : snapshot.relays)
    total_weight += relay.consensus_weight;
  if (total_weight <= 0.0) {
    ++observed_hours_;
    return;
  }

  // First pass: push maxima, accumulate the normalization for Cbar.
  std::array<double, 4> total_cap{};
  std::vector<std::array<double, 4>> caps(snapshot.relays.size());
  for (std::size_t i = 0; i < snapshot.relays.size(); ++i) {
    const auto& relay = snapshot.relays[i];
    auto& track = track_for(tracks_, relay.pop_index, [] {
      Track t;
      for (std::size_t w = 0; w < 4; ++w)
        t.max_adv[w] = std::make_unique<metrics::TrailingMax>(
            static_cast<std::size_t>(kWindowHours[w]));
      return t;
    });
    for (std::size_t w = 0; w < 4; ++w) {
      track.max_adv[w]->push(relay.advertised_bits);
      caps[i][w] = track.max_adv[w]->max();
      total_cap[w] += caps[i][w];
    }
  }

  // Second pass: RWE per relay, NWE accumulation.
  std::array<double, 4> tv{};
  for (std::size_t i = 0; i < snapshot.relays.size(); ++i) {
    const auto& relay = snapshot.relays[i];
    const double w_norm = relay.consensus_weight / total_weight;
    auto& track = tracks_.at(relay.pop_index);
    for (std::size_t w = 0; w < 4; ++w) {
      if (total_cap[w] <= 0.0) continue;
      const double c_norm = caps[i][w] / total_cap[w];
      tv[w] += std::abs(w_norm - c_norm);
      if (sample && c_norm > 0.0) {
        track.rwe_sum[w] += metrics::relay_weight_error(w_norm, c_norm);
        ++track.rwe_count[w];
      }
    }
  }
  for (std::size_t w = 0; w < 4; ++w) nwe_[w].push_back(tv[w] / 2.0);
  ++observed_hours_;
}

std::vector<double> WeightErrorAnalysis::mean_rwe_per_relay(Window w) const {
  const auto wi = static_cast<std::size_t>(w);
  std::vector<double> out;
  out.reserve(tracks_.size());
  for (const auto& [id, track] : tracks_) {
    (void)id;
    if (track.rwe_count[wi] > 0)
      out.push_back(track.rwe_sum[wi] /
                    static_cast<double>(track.rwe_count[wi]));
  }
  return out;
}

const std::vector<double>& WeightErrorAnalysis::nwe_series(Window w) const {
  return nwe_[static_cast<std::size_t>(w)];
}

// --------------------------------------------------------------- variation

void VariationAnalysis::observe(const Snapshot& snapshot) {
  const bool sample = observed_hours_ % kSampleStrideHours == 0;

  double total_weight = 0.0;
  for (const auto& relay : snapshot.relays)
    total_weight += relay.consensus_weight;
  if (total_weight <= 0.0) {
    ++observed_hours_;
    return;
  }

  for (const auto& relay : snapshot.relays) {
    auto& track = track_for(tracks_, relay.pop_index, [] {
      Track t;
      for (std::size_t w = 0; w < 4; ++w) {
        t.adv[w] = std::make_unique<metrics::RollingWindowStats>(
            static_cast<std::size_t>(kWindowHours[w]));
        t.weight[w] = std::make_unique<metrics::RollingWindowStats>(
            static_cast<std::size_t>(kWindowHours[w]));
      }
      return t;
    });
    const double w_norm = relay.consensus_weight / total_weight;
    for (std::size_t w = 0; w < 4; ++w) {
      track.adv[w]->push(relay.advertised_bits);
      track.weight[w]->push(w_norm);
      if (sample && track.adv[w]->count() >= 2) {
        track.adv_rsd_sum[w] += track.adv[w]->relative_stdev();
        track.weight_rsd_sum[w] += track.weight[w]->relative_stdev();
        ++track.count[w];
      }
    }
  }
  ++observed_hours_;
}

std::vector<double> VariationAnalysis::mean_advertised_rsd_per_relay(
    Window w) const {
  const auto wi = static_cast<std::size_t>(w);
  std::vector<double> out;
  for (const auto& [id, track] : tracks_) {
    (void)id;
    if (track.count[wi] > 0)
      out.push_back(track.adv_rsd_sum[wi] /
                    static_cast<double>(track.count[wi]));
  }
  return out;
}

std::vector<double> VariationAnalysis::mean_weight_rsd_per_relay(
    Window w) const {
  const auto wi = static_cast<std::size_t>(w);
  std::vector<double> out;
  for (const auto& [id, track] : tracks_) {
    (void)id;
    if (track.count[wi] > 0)
      out.push_back(track.weight_rsd_sum[wi] /
                    static_cast<double>(track.count[wi]));
  }
  return out;
}

}  // namespace flashflow::analysis
