// Measurement slots (§4.1): fluid per-second simulation plus the BWAuth
// aggregation pipeline.
//
// For each second j of a slot, each measuring process pushes measurement
// cells as fast as its rate limit (a_i / k_i) and socket shares allow; the
// target relay forwards measurement and background traffic subject to its
// capacity components and the ratio-r rule. The BWAuth then aggregates:
//
//   x_j = sum_i x_ij                       (measurement bytes, per second)
//   y_j = min(y_reported_j, x_j r/(1-r))   (clamped background)
//   z   = median(x_1+y_1, ..., x_t+y_t)    (capacity estimate)
//
// Every slot runs this one aggregation, counting a second only when the
// reports that arrived cover >= 1/m of the allocation (fault/fault.h); a
// slot no fault touched has full coverage and reduces exactly to the above.
//
// The relay may lie about y (attack.h) and may forward forged echoes; the
// sampled spot check catches forgeries with probability 1-(1-p)^k.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/params.h"
#include "fault/fault.h"
#include "net/fairshare.h"
#include "net/topology.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "tor/relay.h"

namespace flashflow::core {

/// One measurer's role in a slot.
struct MeasurerSlot {
  net::HostId host = 0;
  double allocated_bits = 0;  // a_i (BandwidthRate sum over its processes)
  int sockets = 0;            // its share of the team's s sockets
};

/// How the target behaves (security experiments).
enum class TargetBehavior {
  kHonest,
  kLieAboutBackground,  // reports maximal y regardless of real forwarding
  kForgeEchoes,         // skips decryption / fabricates responses
};

/// Why a slot produced no usable estimate.
enum class SlotFailure {
  kNone,
  /// Whole-slot timeout (fault::FaultPlan::slot_timeout): nothing ran.
  kTimeout,
  /// Fewer usable seconds than FaultSpec::min_usable_seconds survived the
  /// relay disconnect / crash / report faults.
  kInsufficientEvidence,
};

/// One target's slot. SlotRunner::run_concurrent leaves the per-second
/// series empty; SlotRunner::recorded fills them.
struct SlotOutcome {
  std::vector<double> x_bits;          // per-second aggregated measurement
  std::vector<double> y_reported_bits; // per-second relay-reported normal
  std::vector<double> y_clamped_bits;  // after the r clamp
  std::vector<double> z_bits;          // x + y_clamped
  std::vector<std::vector<double>> x_by_measurer;  // x_ij
  double estimate_bits = 0;            // median(z), 0 when aborted
  bool verification_failed = false;

  // Evidence accounting of the BWAuth aggregation (measurement.cpp). A
  // slot that no fault touched is its full-coverage case: quality exactly
  // 1.0, every second usable, failed false.
  /// Evidence quality in [0, 1]: mean reported-allocation coverage of the
  /// slot's usable seconds over the whole slot. 1.0 when nothing failed.
  double quality = 1.0;
  /// Seconds that met the aggregation's evidence bar (see measurement.cpp);
  /// equals slot_seconds when nothing failed.
  int usable_seconds = 0;
  /// True when the slot produced no usable estimate (estimate_bits == 0);
  /// the campaign layer retries / quarantines on this, not on
  /// verification_failed (a security outcome, never retried).
  bool failed = false;
  SlotFailure failure = SlotFailure::kNone;

  friend bool operator==(const SlotOutcome&, const SlotOutcome&) = default;
};

/// Per-second aggregation used by the BWAuth (exposed for unit tests):
/// clamps reported background to x*r/(1-r) and sums.
double clamp_background(double reported_y_bits, double x_bits, double ratio_r);

/// Offered rate min(a_i, sockets_i * per-socket TCP cap) of a measurer with
/// socket profile `kernel` over the resolved path to its target, before
/// NIC contention (exposed for the Appendix E.1 socket sweep).
double offered_rate(const MeasurerSlot& m, const net::KernelProfile& kernel,
                    const net::PathCharacteristics& path);

/// Reusable scratch for SlotRunner::run_concurrent.
///
/// Owns every buffer the slot pipeline needs — flat SoA arrays for the
/// per-target capacities, a stride-indexed per-(target, measurer) arena
/// (path factors), a host→resource table indexed by host id, the hoisted
/// fair-share flow set, the fair-share solver's scratch, the second-major
/// evidence arenas (x_j, reported y_j, x_ij) that the per-second loop
/// writes by index, the aggregation's median scratch, and the slot's
/// verdicts. A workspace is filled during slot setup and then reused
/// across all slot_seconds iterations: the per-second loop performs no
/// heap allocation.
///
/// Reused across slots (campaign worker lanes hold one each), a workspace
/// reaches steady-state zero allocation: once it has run its largest
/// slot, no later slot grows a buffer (tests/test_core_slot_workspace.cpp
/// counts).
///
/// Results are bit-identical whether a workspace is fresh or reused; it is
/// pure scratch, never carrying state between runs.
class SlotWorkspace {
 public:
  SlotWorkspace() = default;
  SlotWorkspace(const SlotWorkspace&) = delete;
  SlotWorkspace& operator=(const SlotWorkspace&) = delete;
  SlotWorkspace(SlotWorkspace&&) = default;
  SlotWorkspace& operator=(SlotWorkspace&&) = default;

 private:
  friend class SlotRunner;

  // Per-target state (size: n_targets).
  std::vector<double> slot_factor_;
  std::vector<int> sockets_at_target_;
  std::vector<double> base_capacity_;   // ground_truth, hoisted per slot
  std::vector<double> relay_capacity_;  // this second, noise applied
  std::vector<double> y_t_;             // background reserved this second
  /// Arena offsets: target t's members live at [team_offset_[t],
  /// team_offset_[t + 1]) in the per-member arenas below.
  std::vector<std::size_t> team_offset_;

  // Per-(target, measurer) arenas, stride-indexed via team_offset_.
  std::vector<double> path_factor_;
  /// Member host ids, gathered per target so the path model's bulk
  /// fill_paths gets a contiguous span (one call per target per slot),
  /// and the characteristics it resolves.
  std::vector<net::HostId> member_hosts_;
  std::vector<net::PathCharacteristics> path_chars_;

  // Fault arenas, filled at every slot's setup from the armed plan (an
  // inert plan leaves every entry at slot_seconds: nothing ever fails).
  /// Per member: first second its traffic is gone (slot_seconds = never).
  std::vector<int> member_crash_;
  /// Per member: seconds of its report the BWAuth receives.
  std::vector<int> report_end_;
  /// Per target: first second the relay is unreachable (slot_seconds =
  /// stays up).
  std::vector<int> relay_down_;
  /// Segment boundaries of the per-second loop: distinct crash seconds
  /// splitting the slot into ranges with a constant flow set.
  std::vector<int> segment_bounds_;

  // Stochastic per-second series, generated in batches at slot setup so
  // the per-second loop itself runs transcendental-free (the Box-Muller
  // log/sqrt/sincos calls all happen back to back in the setup fills).
  // noise_factor_ is target-major ([t * slot_seconds + s], each target's
  // series drawn from its own forked substream); jitter_ is second-major
  // ([s * n_targets + t], matching the order the per-second loop used to
  // draw them from the slot RNG one at a time).
  std::vector<double> noise_factor_;
  std::vector<double> jitter_;

  // Shared-resource model, built once per slot.
  std::vector<net::HostId> hosts_;  // de-duplicated, in first-seen order
  /// Host id → its index in hosts_, kNoResource when the slot has not
  /// seen it. Sized to the largest topology run so far; the previous
  /// slot's entries are reset through its hosts_, so a slot touches only
  /// its own hosts.
  std::vector<std::size_t> host_resource_;
  std::vector<net::FairShareResource> resources_;
  /// Hoisted flow set: offered rates, weights and resource triples are
  /// second-invariant (only the relay resource capacities change), so the
  /// flows are built once per slot. flows_/flow_ids_ never shrink — the
  /// live prefix is tracked separately so inner vectors keep their
  /// capacity across slots.
  std::vector<net::FairShareFlow> flows_;
  std::vector<std::pair<std::size_t, std::size_t>> flow_ids_;  // (t, i)
  net::FairShareSolver solver_;

  // The slot's per-second evidence, second-major: second s of target t
  // at [s * n_targets + t], of member m at [s * n_members + m].
  std::vector<double> x_;           // x_j, the loop's sum of the flow rates
  std::vector<double> y_reported_;  // y_j as the relay reports it
  std::vector<double> x_it_;        // x_ij

  /// One target's usable z-hat seconds, written from index 0; the median
  /// selects in place among the first usable_seconds.
  std::vector<double> z_hat_;
  /// The slot's verdicts and evidence accounting, aligned with its
  /// targets, every series empty: what run_concurrent returns, valid
  /// until the next run on this workspace.
  std::vector<SlotOutcome> outcomes_;
};

/// Runs one measurement slot against a single target.
///
/// The per-measurer offered rate each second is
///   min(a_i, sockets_i * per-socket TCP cap on the loaded path,
///       measurer NIC shares),
/// and the relay model turns offered load into forwarded bytes. `rng` seeds
/// the relay noise process and verification sampling.
class SlotRunner {
 public:
  SlotRunner(const net::Topology& topo, Params params, sim::Rng rng);

  /// One target on a runner-owned workspace (created on first use and
  /// reused by later calls); returns its recorded outcome.
  SlotOutcome run(const tor::RelayModel& relay, net::HostId relay_host,
                  std::span<const MeasurerSlot> team,
                  TargetBehavior behavior = TargetBehavior::kHonest);

  /// Targets measured concurrently share measurer NICs and (when co-hosted)
  /// the target host's NIC (Appendix F). Outcomes align with `targets`.
  ///
  /// The relay model is borrowed, not copied: campaign workers build a
  /// target list per slot, and deep-copying every RelayModel (name string,
  /// CPU/scheduler models) per slot was measurable at full-network scale.
  /// The pointed-to model must outlive the run_concurrent call.
  struct ConcurrentTarget {
    const tor::RelayModel* relay = nullptr;
    net::HostId host = 0;
    std::vector<MeasurerSlot> team;
    TargetBehavior behavior = TargetBehavior::kHonest;
    /// Optional precomputed sim::hash_tag(relay->name): lets long-running
    /// callers skip re-hashing the relay name every slot when forking the
    /// per-target noise substream. 0 means "hash on demand". Either path
    /// derives the identical substream seed.
    std::uint64_t name_hash = 0;
  };
  /// Runs on caller-owned scratch, and the outcomes stay in it: the
  /// reference is into `ws` and valid until the next run on `ws` (the
  /// contract of net::FairShareSolver::solve), with empty series. A
  /// campaign worker lane keeps one SlotWorkspace for its lifetime, so
  /// its steady-state slots allocate nothing.
  const std::vector<SlotOutcome>& run_concurrent(
      std::span<const ConcurrentTarget> targets, SlotWorkspace& ws);

  /// Target t's outcome of the slot this runner last ran on `ws`, with
  /// its per-second series copied out of the evidence arenas (y clamped
  /// and z recomputed from them with the loop's own x_j). x_by_measurer
  /// has one series per team member; a timed-out slot's are empty.
  SlotOutcome recorded(const SlotWorkspace& ws, std::size_t t) const;

  /// Arms deterministic fault injection for subsequent run_concurrent
  /// calls: `slot` keys the plan's per-slot fault draws (the campaign
  /// slot index). The plan is borrowed and must outlive the runner. Null
  /// (the default) or a plan with every rate at zero faults nothing.
  void arm_faults(const fault::FaultPlan* plan, std::uint64_t slot) {
    fault_plan_ = plan;
    fault_slot_ = slot;
  }

  /// Attaches a telemetry probe for subsequent run_concurrent calls
  /// (borrowed; null — the default — skips every instrumentation site).
  /// Timing is observed only outside the FF_HOT per-second loop, and none
  /// of it feeds the outcomes: results are byte-identical either way.
  void set_probe(telemetry::SlotProbe* probe) { probe_ = probe; }

 private:
  /// BWAuth aggregation of every slot: estimates from the surviving
  /// (reported, still-alive) allocation share, refusing seconds below the
  /// §4.2 headroom bar and targets with < `min_usable_seconds` left.
  /// Reads the evidence arenas and writes each target's verdict into
  /// ws.outcomes_.
  void aggregate(std::span<const ConcurrentTarget> targets,
                 int min_usable_seconds, SlotWorkspace& ws);

  const net::Topology& topo_;
  Params params_;
  sim::Rng rng_;
  /// Backs run(); created on first use, so a runner built per slot around
  /// a caller's workspace stays a few words.
  std::unique_ptr<SlotWorkspace> scratch_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  std::uint64_t fault_slot_ = 0;
  telemetry::SlotProbe* probe_ = nullptr;
};

}  // namespace flashflow::core
