#include "core/measurement.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/verification.h"
#include "metrics/stats.h"
#include "net/tcp_model.h"
#include "net/units.h"
#include "tor/cell.h"

namespace flashflow::core {

namespace {
const fault::FaultPlan kNoFaults{};  // an unarmed runner's plan: no faults
// A host_resource_ entry for a host the current slot has not seen.
constexpr std::size_t kNoResource = static_cast<std::size_t>(-1);
}  // namespace

double clamp_background(double reported_y_bits, double x_bits,
                        double ratio_r) {
  if (ratio_r < 0.0 || ratio_r >= 1.0)
    throw std::invalid_argument("clamp_background: bad ratio");
  return std::min(reported_y_bits, x_bits * ratio_r / (1.0 - ratio_r));
}

double offered_rate(const MeasurerSlot& m, const net::KernelProfile& kernel,
                    const net::PathCharacteristics& path) {
  if (m.sockets <= 0 || m.allocated_bits <= 0.0) return 0.0;
  double rtt = path.rtt_s;
  if (rtt <= 0.0) rtt = 0.0005;  // co-located hosts: sub-millisecond path
  const double per_socket =
      net::tcp_socket_throughput(kernel, rtt, path.loaded_loss);
  return std::min(m.allocated_bits, per_socket * m.sockets);
}

SlotRunner::SlotRunner(const net::Topology& topo, Params params, sim::Rng rng)
    : topo_(topo), params_(params), rng_(std::move(rng)) {}

SlotOutcome SlotRunner::run(const tor::RelayModel& relay,
                            net::HostId relay_host,
                            std::span<const MeasurerSlot> team,
                            TargetBehavior behavior) {
  ConcurrentTarget target;
  target.relay = &relay;
  target.host = relay_host;
  target.team.assign(team.begin(), team.end());
  target.behavior = behavior;
  if (!scratch_) scratch_ = std::make_unique<SlotWorkspace>();
  run_concurrent({&target, 1}, *scratch_);
  return recorded(*scratch_, 0);
}

SlotOutcome SlotRunner::recorded(const SlotWorkspace& ws,
                                 std::size_t t) const {
  SlotOutcome out = ws.outcomes_.at(t);
  const std::size_t n_targets = ws.outcomes_.size();
  const std::size_t n_members = ws.team_offset_[n_targets];
  const std::size_t off = ws.team_offset_[t];
  out.x_by_measurer.resize(ws.team_offset_[t + 1] - off);
  // A timed-out slot never ran: every series stays empty.
  const std::size_t n_seconds =
      out.failure == SlotFailure::kTimeout
          ? 0
          : static_cast<std::size_t>(params_.slot_seconds);
  for (auto* series : {&out.x_bits, &out.y_reported_bits,
                       &out.y_clamped_bits, &out.z_bits})
    series->resize(n_seconds);
  for (auto& series : out.x_by_measurer) series.resize(n_seconds);
  for (std::size_t s = 0; s < n_seconds; ++s) {
    const double x = ws.x_[s * n_targets + t];
    out.x_bits[s] = x;
    out.y_reported_bits[s] = ws.y_reported_[s * n_targets + t];
    out.y_clamped_bits[s] =
        clamp_background(out.y_reported_bits[s], x, params_.ratio);
    out.z_bits[s] = x + out.y_clamped_bits[s];
    for (std::size_t i = 0; i < out.x_by_measurer.size(); ++i)
      out.x_by_measurer[i][s] = ws.x_it_[s * n_members + off + i];
  }
  return out;
}

const std::vector<SlotOutcome>& SlotRunner::run_concurrent(
    std::span<const ConcurrentTarget> targets, SlotWorkspace& ws) {
  // Slot setup runs from here to the first segment; the stage contains
  // fill_paths and the first prepare.
  const std::uint64_t setup_start = probe_ ? probe_->now() : 0;
  const int t_seconds = params_.slot_seconds;
  const std::size_t n_seconds = static_cast<std::size_t>(t_seconds);
  const std::size_t n_targets = targets.size();
  const fault::FaultPlan& faults = fault_plan_ ? *fault_plan_ : kNoFaults;

  // Member arena layout: target t's measurers occupy
  // [team_offset_[t], team_offset_[t+1]).
  ws.team_offset_.resize(n_targets + 1);
  ws.team_offset_[0] = 0;
  for (std::size_t t = 0; t < n_targets; ++t)
    ws.team_offset_[t + 1] = ws.team_offset_[t] + targets[t].team.size();
  const std::size_t n_members = ws.team_offset_[n_targets];
  ws.outcomes_.assign(n_targets, SlotOutcome{});

  // Whole-slot timeout: the slot never runs. Nothing is recorded, every
  // target fails, and rng_ is never touched — the decision is the plan's
  // alone.
  if (faults.slot_timeout(fault_slot_)) {
    for (SlotOutcome& out : ws.outcomes_) {
      out.quality = 0.0;
      out.failed = true;
      out.failure = SlotFailure::kTimeout;
    }
    if (probe_)
      probe_->timing().slot_setup_micros = probe_->now() - setup_start;
    return ws.outcomes_;
  }

  // ---------------------------------------------------------- slot setup --
  // Everything invariant across the slot's seconds is computed once here,
  // into workspace buffers that persist across slots; the per-second loop
  // below performs no heap allocation.

  // Fault draws, resolved up front from the plan's pure per-slot oracle:
  // when a member's traffic stops (its flow leaves the fair-share
  // contention at that boundary), when the relay drops off, and how much
  // of each member's report the BWAuth will receive. segment_bounds_
  // partitions [0, t) at the distinct crash seconds — the ranges over
  // which the flow set is constant. Under an inert plan every member
  // sends and reports all t seconds, the relay stays up, and the slot
  // runs as a single [0, t) segment.
  //
  // Noise processes, one per target, plus per-slot condition factors.
  //
  // Relay-side: a slot-long capacity factor plus per-second wobble and
  // shallow congestion episodes — the relay's own weather. Together these
  // drive the run-to-run spread in Fig 6.
  //
  // Path-side: each measurer's *delivery* toward the target carries its
  // own slot-long factor (transit congestion between measurer and relay).
  // This is what the multiplier m buys headroom against: with allocation
  // m*z0, a delivery dip to fraction d still saturates the relay as long
  // as m*d >= 1, which is why m = 2.25 eliminates the low outliers of
  // Fig 15 while m = 1.5 does not.
  //
  // The rng_ call sequence in this loop is load-bearing: it must match the
  // pre-workspace implementation draw for draw so fixed-seed results stay
  // bit-identical (tests/test_golden_determinism.cpp pins this). The fault
  // queries interleaved with it never touch rng_.
  //
  // Each target's noise series comes from its own forked substream, so the
  // whole slot's worth of factors can be drawn here in one batched pass
  // per target (tor::RelayNoise::fill_factors) without perturbing any
  // other stream — the per-second loop then just reads the arena.
  ws.relay_down_.resize(n_targets);
  ws.member_crash_.resize(n_members);
  ws.report_end_.resize(n_members);
  ws.segment_bounds_.assign(1, 0);
  ws.slot_factor_.resize(n_targets);
  ws.path_factor_.resize(n_members);
  ws.noise_factor_.resize(n_targets * n_seconds);
  for (std::size_t t = 0; t < n_targets; ++t) {
    const ConcurrentTarget& target = targets[t];
    const std::uint64_t relay_hash = target.name_hash != 0
                                         ? target.name_hash
                                         : sim::hash_tag(target.relay->name);
    const int down =
        faults.relay_disconnect_second(fault_slot_, relay_hash, t_seconds);
    ws.relay_down_[t] = down >= 0 ? down : t_seconds;
    // Identical substream to forking on relay->name + "/noise": FNV-1a
    // continues from the precomputed name hash.
    tor::RelayNoise noise(tor::RelayNoise::Params{},
                          rng_.fork(sim::hash_tag("/noise", relay_hash)));
    noise.fill_factors(
        std::span(ws.noise_factor_).subspan(t * n_seconds, n_seconds));
    ws.slot_factor_[t] =
        std::clamp(1.0 + rng_.normal(-0.01, 0.04), 0.85, 1.04);
    for (std::size_t i = 0; i < target.team.size(); ++i) {
      const std::size_t m = ws.team_offset_[t] + i;
      const net::HostId host = target.team[i].host;
      const int crash =
          faults.measurer_crash_second(fault_slot_, host, t_seconds);
      ws.member_crash_[m] = crash >= 0 ? crash : t_seconds;
      // A crashed member's log covers only its live seconds; report
      // faults shorten (or drop) what arrives on top of that.
      ws.report_end_[m] = std::min(
          ws.member_crash_[m],
          faults.report_seconds(fault_slot_, relay_hash, host, t_seconds));
      if (crash > 0 && crash < t_seconds) ws.segment_bounds_.push_back(crash);
      // Occasionally a measurer's transit path has a bad half hour and
      // delivers well under its allocation; most slots see mild weather.
      ws.path_factor_[m] =
          rng_.chance(0.12)
              ? rng_.uniform(0.36, 0.70)
              : std::clamp(1.0 + rng_.normal(-0.02, 0.06), 0.75, 1.02);
    }
  }
  std::sort(ws.segment_bounds_.begin(), ws.segment_bounds_.end());
  ws.segment_bounds_.erase(
      std::unique(ws.segment_bounds_.begin(), ws.segment_bounds_.end()),
      ws.segment_bounds_.end());
  ws.segment_bounds_.push_back(t_seconds);

  // Per-second capacity jitter, batched off the slot RNG. The loop below
  // used to draw one normal per (second, target) pair, second-major; a
  // single normal_fill consumes the identical raw-draw sequence (nothing
  // else touches rng_ between setup and verification), so the arena holds
  // bit-identical values at the same (second, target) positions.
  ws.jitter_.resize(n_seconds * n_targets);
  rng_.normal_fill(ws.jitter_);

  // Total sockets pointed at each target (drives the CPU overhead model),
  // and the second-invariant part of the relay's capacity: ground_truth()
  // composes NIC/CPU/rate-limit including the token bucket's quantization
  // shave, none of which changes within a slot.
  ws.sockets_at_target_.assign(n_targets, 0);
  ws.base_capacity_.resize(n_targets);
  for (std::size_t t = 0; t < n_targets; ++t) {
    for (const auto& m : targets[t].team)
      ws.sockets_at_target_[t] += m.sockets;
    ws.base_capacity_[t] =
        targets[t].relay->ground_truth(ws.sockets_at_target_[t]);
  }

  // Shared resources: measurer NIC (min of up/down since echo traffic rides
  // both directions at the measured rate) and target-host NIC.
  // Resource layout: [slot hosts in first-seen order..., per-target relay].
  for (const net::HostId h : ws.hosts_) ws.host_resource_[h] = kNoResource;
  ws.hosts_.clear();
  if (ws.host_resource_.size() < topo_.host_count())
    ws.host_resource_.resize(topo_.host_count(), kNoResource);
  const auto host_resource = [&ws](net::HostId h) {
    std::size_t& index = ws.host_resource_.at(h);
    if (index == kNoResource) {
      index = ws.hosts_.size();
      ws.hosts_.push_back(h);
    }
    return index;
  };
  // First pass to assign indices deterministically.
  for (const auto& target : targets) {
    host_resource(target.host);
    for (const auto& m : target.team) host_resource(m.host);
  }
  const std::size_t relay_resource_base = ws.hosts_.size();

  // Host NIC capacities are slot constants; only the per-target relay
  // resources (relay_resource_base + t) are rewritten each second.
  ws.resources_.resize(relay_resource_base + n_targets);
  for (std::size_t h = 0; h < relay_resource_base; ++h) {
    const auto& host = topo_.host(ws.hosts_[h]);
    ws.resources_[h].capacity =
        std::min(host.nic_up_bits, host.nic_down_bits);
  }

  // Hoisted flow set. A flow's offered rate — the per-socket TCP model on
  // the measurer→relay path (RTT, loaded loss, kernel profile) capped by
  // its allocation, times the slot's path factor — is a slot invariant, so
  // the path resolution and tcp_socket_throughput happen once per
  // (measurer, target) pair per slot, not once per second. Paths come from
  // the topology's bulk fill_paths: one call per target per slot (team
  // hosts gathered into a contiguous arena first), keeping path
  // resolution out of the per-second loop. flows_ and flow_ids_ are
  // overwritten in place and never shrunk, so each flow's resource-index
  // vector keeps its capacity across slots.
  ws.member_hosts_.resize(n_members);
  ws.path_chars_.resize(n_members);
  const std::uint64_t fill_start = probe_ ? probe_->now() : 0;
  for (std::size_t t = 0; t < n_targets; ++t) {
    for (std::size_t i = 0; i < targets[t].team.size(); ++i)
      ws.member_hosts_[ws.team_offset_[t] + i] = targets[t].team[i].host;
    const std::size_t lo = ws.team_offset_[t];
    const std::size_t len = ws.team_offset_[t + 1] - lo;
    topo_.fill_paths(targets[t].host,
                     std::span(ws.member_hosts_).subspan(lo, len),
                     std::span(ws.path_chars_).subspan(lo, len));
  }
  if (probe_) probe_->note_fill_paths(probe_->now() - fill_start, n_targets);
  std::size_t n_flows = 0;
  for (std::size_t t = 0; t < n_targets; ++t) {
    const std::size_t target_res = host_resource(targets[t].host);
    for (std::size_t i = 0; i < targets[t].team.size(); ++i) {
      const auto& m = targets[t].team[i];
      // Paths are symmetric: the target→member resolution is the
      // member→target path the flow runs on.
      const std::size_t k = ws.team_offset_[t] + i;
      const double offered =
          offered_rate(m, topo_.host(m.host).kernel, ws.path_chars_[k]) *
          ws.path_factor_[k];
      if (offered <= 0.0) continue;
      if (n_flows == ws.flows_.size()) {
        ws.flows_.emplace_back();
        ws.flow_ids_.emplace_back();
      }
      net::FairShareFlow& f = ws.flows_[n_flows];
      f.resources.assign(
          {host_resource(m.host), target_res, relay_resource_base + t});
      f.weight = std::max(1, m.sockets);
      f.cap = offered;
      ws.flow_ids_[n_flows] = {t, i};
      ++n_flows;
    }
  }
  // The flow set is a slot invariant: prepare it once so every per-second
  // solve skips validation, flattening and the initial weight sums.
  const std::uint64_t prep_start = probe_ ? probe_->now() : 0;
  ws.solver_.prepare({ws.flows_.data(), n_flows}, ws.resources_.size());
  if (probe_) {
    const std::uint64_t prep_end = probe_->now();
    probe_->note_prepare(prep_end - prep_start,
                         ws.solver_.prepared_active_flows());
    probe_->timing().slot_setup_micros = prep_end - setup_start;
  }

  ws.relay_capacity_.resize(n_targets);
  ws.y_t_.resize(n_targets);
  // The evidence arenas, one row per second. Zeroed here: x_j sums the
  // flow rates from 0, and a member without a flow records +0.0.
  ws.x_.assign(n_seconds * n_targets, 0.0);
  ws.y_reported_.resize(n_seconds * n_targets);
  ws.x_it_.assign(n_seconds * n_members, 0.0);
  ws.z_hat_.resize(n_seconds);

  // Segment loop: between crash boundaries the flow set is constant. At
  // each boundary after the first, the crashed members' flows leave the
  // fair-share contention — their caps zero out, which the solver folds
  // away at prepare time, so the re-prepare happens here (outside the hot
  // region, at most a handful of times per faulted slot). A slot without
  // crashes has exactly one segment [0, t).
  const std::size_t n_segments = ws.segment_bounds_.size() - 1;
  if (probe_) probe_->note_segments(static_cast<int>(n_segments));
  for (std::size_t seg = 0; seg < n_segments; ++seg) {
    const int seg_begin = ws.segment_bounds_[seg];
    const int seg_end = ws.segment_bounds_[seg + 1];
    if (seg > 0) {
      const std::uint64_t reprep_start = probe_ ? probe_->now() : 0;
      for (std::size_t k = 0; k < n_flows; ++k) {
        const auto [ft, fi] = ws.flow_ids_[k];
        if (ws.member_crash_[ws.team_offset_[ft] + fi] <= seg_begin)
          ws.flows_[k].cap = 0.0;
      }
      ws.solver_.prepare({ws.flows_.data(), n_flows}, ws.resources_.size());
      if (probe_)
        probe_->note_prepare(probe_->now() - reprep_start,
                             ws.solver_.prepared_active_flows());
    }
    // The segment's solve window brackets the FF_HOT region: clock reads
    // stay outside it, and the solve-seconds counter adds the whole range
    // in one step rather than incrementing per iteration.
    const std::uint64_t solve_start = probe_ ? probe_->now() : 0;

  // FF_HOT_BEGIN: per-second slot loop — ffcheck rejects allocation-shaped
  // calls until the matching FF_HOT_END (see src/lint/rules.h).
  // ------------------------------------------------------ per-second loop --
  // All stochastic series were batched into arenas above: this loop is
  // pure arithmetic (no rng_ draws, no libm transcendentals).
  for (int second = seg_begin; second < seg_end; ++second) {
    const std::size_t s = static_cast<std::size_t>(second);
    // Relay-internal capacity this second (CPU, rate limit + burst, noise).
    for (std::size_t t = 0; t < n_targets; ++t) {
      const auto& relay = *targets[t].relay;
      // The first second additionally spends the accumulated token bucket
      // (Fig 7's spike).
      double cap = ws.base_capacity_[t];
      if (relay.rate_limit_bits > 0.0 && second == 0)
        cap += relay.rate_limit_bits * tor::kBurstSeconds;
      // Noise plus a small absolute jitter that dominates for tiny relays
      // (jitter_[s][t] == the normal(0, 0.15 Mbit) the loop used to draw
      // here, scaled from the batched standard normals).
      cap = cap * ws.slot_factor_[t] * ws.noise_factor_[t * n_seconds + s] +
            net::mbit(0.15) * ws.jitter_[s * n_targets + t];
      // A disconnected relay forwards nothing from its drop second on.
      ws.relay_capacity_[t] =
          second < ws.relay_down_[t] ? std::max(cap, 0.0) : 0.0;
    }

    // The relay reserves the ratio-r background allowance up front (§4.1:
    // it sends as much normal traffic as the maximum ratio allows), then
    // the measurement flows share the rest of the capacity and the NICs.
    for (std::size_t t = 0; t < n_targets; ++t) {
      // A relay lying about its background sends none at all, keeping the
      // capacity for the measurement.
      const double demand =
          targets[t].behavior == TargetBehavior::kLieAboutBackground
              ? 0.0
              : targets[t].relay->background_demand_bits;
      ws.y_t_[t] = std::min(demand, params_.ratio * ws.relay_capacity_[t]);
    }

    for (std::size_t t = 0; t < n_targets; ++t)
      ws.resources_[relay_resource_base + t].capacity =
          std::max(ws.relay_capacity_[t] - ws.y_t_[t], 0.0);

    const auto rates = ws.solver_.solve_prepared(ws.resources_);

    // Record second s: x_ij and their running sum x_j by index into the
    // evidence arenas, then the relay's report y_j.
    const std::size_t row = s * n_targets;
    for (std::size_t k = 0; k < n_flows; ++k) {
      const auto [t, i] = ws.flow_ids_[k];
      ws.x_it_[s * n_members + ws.team_offset_[t] + i] = rates[k];
      ws.x_[row + t] += rates[k];
    }
    for (std::size_t t = 0; t < n_targets; ++t) {
      // The liar forwards no background at all (keeping its capacity for
      // the measurement) but reports the maximum plausible amount. The
      // background an honest relay forwards also satisfies the ratio rule
      // against the measurement traffic that actually materialized.
      ws.y_reported_[row + t] =
          targets[t].behavior == TargetBehavior::kLieAboutBackground
              ? ws.relay_capacity_[t]
              : std::min(ws.y_t_[t], ws.x_[row + t] * params_.ratio /
                                         (1.0 - params_.ratio));
    }
  }
  // FF_HOT_END: per-second slot loop
    // Taken with or without a probe, so no count outlives its segment.
    const net::FairShareCounters work = ws.solver_.take_counters();
    if (probe_) {
      probe_->note_solve(probe_->now() - solve_start,
                         static_cast<std::uint64_t>(seg_end - seg_begin));
      probe_->note_solver_work(work.fill_steps, work.exact_quotients);
    }
  }

  // The BWAuth only sees what surviving measurers reported: estimates,
  // verification and quality all derive from that evidence. The floor is
  // capped at the slot length, so a slot that ran whole always qualifies.
  const std::uint64_t aggregate_start = probe_ ? probe_->now() : 0;
  aggregate(targets, std::min(faults.spec().min_usable_seconds, t_seconds),
            ws);
  if (probe_)
    probe_->timing().aggregate_micros = probe_->now() - aggregate_start;
  return ws.outcomes_;
}

void SlotRunner::aggregate(std::span<const ConcurrentTarget> targets,
                           int min_usable_seconds, SlotWorkspace& ws) {
  const int t_seconds = params_.slot_seconds;
  const std::size_t n_targets = targets.size();
  const std::size_t n_members = ws.team_offset_[n_targets];

  // FF_HOT_BEGIN: per-target aggregation — ffcheck rejects
  // allocation-shaped calls until the matching FF_HOT_END.
  for (std::size_t t = 0; t < n_targets; ++t) {
    SlotOutcome& out = ws.outcomes_[t];
    const ConcurrentTarget& target = targets[t];
    const std::size_t off = ws.team_offset_[t];

    double total_alloc = 0.0;
    for (const auto& m : target.team) total_alloc += m.allocated_bits;

    // Per second j the BWAuth holds reports covering allocation A_cov_j
    // (members whose report reaches second j) out of the allocation
    // A_alive_j that was actually sending (members not yet crashed;
    // report_end <= crash by construction, so A_cov <= A_alive). The
    // measured bytes x~_j it can see scale up by A_alive/A_cov — the
    // uncovered-but-alive members pushed traffic the relay absorbed even
    // though their logs are gone. A second is usable when the relay was
    // still up and the covered allocation keeps the §4.2 headroom: teams
    // are provisioned at multiplier m (= 2.25) times the prior, so any
    // surviving fraction >= 1/m still offers enough load to saturate the
    // relay; below that bar the second under-measures and is refused
    // rather than scaled.
    //
    // At full coverage this is exactly the plain BWAuth rule: x~_j adds
    // the member series in member order, the order the flows were built
    // in, and members without a flow add +0.0, so x~_j == x_j bit for
    // bit; a_alive, a_cov and total_alloc are the same sum, so the scale
    // and coverage ratios are exactly 1.0.
    double reported_bits = 0.0;   // evidence the spot check can cover
    double coverage_sum = 0.0;    // sum of per-second A_cov/A, usable secs
    int usable = 0;
    const int down = ws.relay_down_[t];
    for (int j = 0; j < t_seconds; ++j) {
      const auto s = static_cast<std::size_t>(j);
      double a_alive = 0.0, a_cov = 0.0, x_tilde = 0.0;
      for (std::size_t i = 0; i < target.team.size(); ++i) {
        const std::size_t m = off + i;
        const double a = target.team[i].allocated_bits;
        if (j < ws.member_crash_[m]) a_alive += a;
        if (j < ws.report_end_[m]) {
          a_cov += a;
          x_tilde += ws.x_it_[s * n_members + m];
        }
      }
      reported_bits += x_tilde;
      if (j >= down || a_cov <= 0.0 ||
          a_cov < total_alloc / params_.multiplier)
        continue;
      const double x_hat = x_tilde * (a_alive / a_cov);
      const double y_hat = clamp_background(
          ws.y_reported_[s * n_targets + t], x_hat, params_.ratio);
      ws.z_hat_[static_cast<std::size_t>(usable)] = x_hat + y_hat;
      // The ratio, not the raw allocation, so that a fully covered second
      // adds an exact 1.0 and an untouched relay's quality is exactly 1.
      coverage_sum += a_cov / total_alloc;
      ++usable;
    }

    // Spot checks run over the measurement bytes the BWAuth actually
    // received: a reduced team means fewer checkable cells, so detection
    // probability 1-(1-p)^k re-derives from the surviving report volume
    // (§4.2 with k shrunk accordingly).
    if (target.behavior == TargetBehavior::kForgeEchoes) {
      out.verification_failed =
          sample_detection(params_.check_probability,
                           net::bytes_from_bits(reported_bits),
                           tor::kCellSize, rng_);
    }

    out.usable_seconds = usable;
    out.quality = total_alloc > 0.0 && t_seconds > 0
                      ? coverage_sum / static_cast<double>(t_seconds)
                      : 0.0;
    if (usable < min_usable_seconds) {
      out.failed = true;
      out.failure = SlotFailure::kInsufficientEvidence;
    } else if (!out.verification_failed) {
      // The median of the plain BWAuth rule, selected in z_hat's own
      // storage (metrics::median would copy and sort).
      out.estimate_bits = metrics::percentile_in_place(
          std::span(ws.z_hat_).first(static_cast<std::size_t>(usable)),
          50.0);
    }
  }
  // FF_HOT_END: per-target aggregation
}

}  // namespace flashflow::core
