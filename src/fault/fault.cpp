#include "fault/fault.h"

#include <stdexcept>
#include <string>

namespace flashflow::fault {

namespace {

void reject(const std::string& what) {
  throw std::invalid_argument("FaultSpec: " + what);
}

}  // namespace

void FaultSpec::validate() const {
  const auto bad_rate = [](double r) { return r < 0.0 || r > 1.0; };
  if (bad_rate(measurer_crash)) reject("measurer_crash must be in [0, 1]");
  if (bad_rate(relay_disconnect))
    reject("relay_disconnect must be in [0, 1]");
  if (bad_rate(report_drop)) reject("report_drop must be in [0, 1]");
  if (bad_rate(report_truncate)) reject("report_truncate must be in [0, 1]");
  if (bad_rate(slot_timeout)) reject("slot_timeout must be in [0, 1]");
  if (max_retries < 0) reject("max_retries must be >= 0");
  if (min_usable_seconds < 1) reject("min_usable_seconds must be >= 1");
}

void FaultSpec::validate(int slot_seconds) const {
  validate();
  if (enabled() && min_usable_seconds > slot_seconds)
    reject("min_usable_seconds must not exceed params.slot_seconds while "
           "faults are armed");
}

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t campaign_seed)
    : spec_(spec), seed_(campaign_seed ^ sim::hash_tag("fault/plan")) {
  spec_.validate();
}

sim::Rng FaultPlan::query_rng(std::uint64_t domain, std::uint64_t slot,
                              std::uint64_t entity_a,
                              std::uint64_t entity_b) const {
  // SplitMix64 between each ingredient so small integers (slot indices,
  // host ids) land on well-separated streams; the final step seeds the
  // query's private generator. Pure in the inputs: queries commute and
  // replay identically from any thread.
  std::uint64_t state = seed_ ^ domain;
  sim::splitmix64(state);
  state ^= slot;
  sim::splitmix64(state);
  state ^= entity_a;
  sim::splitmix64(state);
  state ^= entity_b;
  return sim::Rng(sim::splitmix64(state));
}

bool FaultPlan::slot_timeout(std::uint64_t slot) const {
  if (spec_.slot_timeout <= 0.0) return false;
  sim::Rng rng = query_rng(sim::hash_tag("fault/timeout"), slot, 0, 0);
  return rng.chance(spec_.slot_timeout);
}

int FaultPlan::relay_disconnect_second(std::uint64_t slot,
                                       std::uint64_t relay_hash,
                                       int slot_seconds) const {
  if (spec_.relay_disconnect <= 0.0 || slot_seconds < 2) return -1;
  sim::Rng rng = query_rng(sim::hash_tag("fault/relay"), slot, relay_hash, 0);
  if (!rng.chance(spec_.relay_disconnect)) return -1;
  return static_cast<int>(rng.uniform_int(1, slot_seconds - 1));
}

int FaultPlan::measurer_crash_second(std::uint64_t slot,
                                     std::uint64_t measurer_host,
                                     int slot_seconds) const {
  if (spec_.measurer_crash <= 0.0 || slot_seconds < 2) return -1;
  sim::Rng rng =
      query_rng(sim::hash_tag("fault/measurer"), slot, measurer_host, 0);
  if (!rng.chance(spec_.measurer_crash)) return -1;
  return static_cast<int>(rng.uniform_int(1, slot_seconds - 1));
}

int FaultPlan::report_seconds(std::uint64_t slot, std::uint64_t relay_hash,
                              std::uint64_t measurer_host,
                              int slot_seconds) const {
  if (spec_.report_drop <= 0.0 && spec_.report_truncate <= 0.0)
    return slot_seconds;
  sim::Rng rng =
      query_rng(sim::hash_tag("fault/report"), slot, relay_hash,
                measurer_host);
  // Two sequential trials, always both drawn so the truncation draw does
  // not depend on whether dropping is enabled.
  const bool dropped = rng.chance(spec_.report_drop);
  const bool truncated = rng.chance(spec_.report_truncate);
  if (dropped) return 0;
  if (truncated && slot_seconds >= 2)
    return static_cast<int>(rng.uniform_int(1, slot_seconds - 1));
  return slot_seconds;
}

}  // namespace flashflow::fault
