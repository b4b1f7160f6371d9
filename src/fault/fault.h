// Deterministic fault injection for measurement campaigns.
//
// A real FlashFlow deployment loses measurer machines mid-slot, watches
// relays disconnect while being measured, and receives partial or no
// per-second reports — none of which the perfect-world slot pipeline
// modeled. FaultPlan injects those failures reproducibly: every fault
// occurrence is a pure function of (campaign seed, slot, entity), derived
// through the same domain-separated sub-seed scheme the campaign engine
// uses (sim::hash_tag tags under "fault/"), so faulted runs stay
// byte-identical across worker thread counts and shard sizes, and a
// failing slot can be replayed in isolation from its coordinates alone.
//
// The plan only *decides* faults; the physical and accounting
// consequences live where the affected state lives: core::SlotRunner
// (traffic stops, capacity vanishes, reports go missing) and
// campaign::CampaignRunner (retry, quarantine). With every rate at zero
// the plan is inert: every query answers "no fault", every slot keeps its
// full evidence, and nothing is retried.
#pragma once

#include <cstdint>

#include "sim/random.h"

namespace flashflow::fault {

/// Fault rates and degradation policy for one campaign. All rates are
/// per-trial probabilities in [0, 1]; the trial granularity is named per
/// field. Value type: scenario files round-trip it (operator==).
struct FaultSpec {
  /// Per (slot, measurer host): the measurer dies mid-slot — its traffic
  /// toward every target stops at the crash second, though its per-second
  /// log up to the crash still reaches the BWAuth (the report channel is
  /// faulted separately below).
  double measurer_crash = 0.0;
  /// Per (slot, relay): the target drops off the network mid-slot;
  /// seconds from the disconnect on carry no usable evidence.
  double relay_disconnect = 0.0;
  /// Per (slot, relay, measurer): the measurer's report never arrives.
  double report_drop = 0.0;
  /// Per (slot, relay, measurer): the report is cut short after a random
  /// number of seconds.
  double report_truncate = 0.0;
  /// Per slot: the whole slot times out; nothing in it is measured.
  double slot_timeout = 0.0;

  /// Retry budget per relay: a relay whose slot failed is re-queued into
  /// spare capacity later in the period at most this many times, then
  /// quarantined.
  int max_retries = 2;
  /// Seconds of usable evidence below which a slot's estimate is refused
  /// (core::SlotFailure::kInsufficientEvidence).
  int min_usable_seconds = 5;

  /// True when any fault can actually occur. Policy knobs alone
  /// (max_retries, min_usable_seconds) arm nothing.
  bool enabled() const {
    return measurer_crash > 0.0 || relay_disconnect > 0.0 ||
           report_drop > 0.0 || report_truncate > 0.0 || slot_timeout > 0.0;
  }

  /// Throws std::invalid_argument naming the bad field.
  void validate() const;
  /// validate(), plus: armed faults may not demand more usable seconds
  /// than `slot_seconds`, which would fail every slot.
  void validate(int slot_seconds) const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Deterministic fault oracle for one campaign (one period seed).
///
/// Every query is stateless and pure: it derives a fresh substream from
/// (plan seed, domain tag, slot, entity) and never touches shared state,
/// so queries may run concurrently from any worker in any order. Period
/// separation comes for free — campaigns already run under per-period
/// seeds (scenario::period_seed) — and retry slots get fresh draws
/// because they run under fresh slot indices.
class FaultPlan {
 public:
  /// An inert plan: every query reports "no fault".
  FaultPlan() = default;

  FaultPlan(const FaultSpec& spec, std::uint64_t campaign_seed);

  const FaultSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.enabled(); }

  /// Whole-slot timeout: the slot never runs, every target in it fails.
  bool slot_timeout(std::uint64_t slot) const;

  /// First second the relay is unreachable, in [1, slot_seconds);
  /// -1 when it stays up. `relay_hash` is sim::hash_tag(relay name) —
  /// the same identity hash the noise substreams fork on.
  int relay_disconnect_second(std::uint64_t slot, std::uint64_t relay_hash,
                              int slot_seconds) const;

  /// First second the measurer's traffic is gone (all targets it serves),
  /// in [1, slot_seconds); -1 when it stays up.
  int measurer_crash_second(std::uint64_t slot, std::uint64_t measurer_host,
                            int slot_seconds) const;

  /// Seconds of the (relay, measurer) per-second report that reach the
  /// BWAuth: slot_seconds = complete, 0 = dropped, k in (0, slot_seconds)
  /// = truncated after k seconds.
  int report_seconds(std::uint64_t slot, std::uint64_t relay_hash,
                     std::uint64_t measurer_host, int slot_seconds) const;

 private:
  /// Fresh substream for one (domain, slot, entity-pair) query.
  sim::Rng query_rng(std::uint64_t domain, std::uint64_t slot,
                     std::uint64_t entity_a, std::uint64_t entity_b) const;

  FaultSpec spec_;
  std::uint64_t seed_ = 0;
};

}  // namespace flashflow::fault
