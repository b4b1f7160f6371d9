// Campaign-level fault injection: deterministic faulted output, retry and
// quarantine accounting, graceful degradation of the error distribution,
// and cancellation invariants with retry rounds in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "net/topology.h"
#include "net/units.h"
#include "tor/cpu_model.h"

namespace flashflow::campaign {
namespace {

CampaignRelay make_relay(const net::Topology& topo, double limit_mbit) {
  CampaignRelay r;
  r.model.name = "relay-" + std::to_string(static_cast<int>(limit_mbit));
  r.model.nic_up_bits = r.model.nic_down_bits = net::mbit(954);
  r.model.rate_limit_bits = net::mbit(limit_mbit);
  r.model.cpu = tor::CpuModel::us_sw();
  r.host = topo.find("US-SW");
  return r;
}

CampaignConfig lab_config(const net::Topology& topo) {
  CampaignConfig config;
  config.measurer_hosts = {topo.find("US-E"), topo.find("NL")};
  config.measurer_capacity_bits = {net::mbit(900), net::mbit(900)};
  config.seed = 20210613;
  return config;
}

std::vector<CampaignRelay> small_population(const net::Topology& topo) {
  std::vector<CampaignRelay> relays;
  for (const double limit : {10, 25, 50, 75, 100, 150, 200, 250, 40, 120})
    relays.push_back(make_relay(topo, limit));
  return relays;
}

fault::FaultSpec all_channels(double rate) {
  fault::FaultSpec faults;
  faults.measurer_crash = rate;
  faults.relay_disconnect = rate;
  faults.report_drop = rate;
  faults.report_truncate = rate;
  faults.slot_timeout = rate / 2;
  return faults;
}

// The acceptance bar of the fault layer: with faults armed, the streamed
// bytes — retry rounds, fault columns and all — are identical for every
// (threads, shard) combination.
TEST(CampaignFaults, FaultedBytesIdenticalAcrossThreadsAndShards) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto stream_csv = [&](int threads, int shard) {
    auto config = lab_config(topo);
    config.threads = threads;
    config.shard_slots = shard;
    config.faults = all_channels(0.3);
    std::ostringstream out;
    CsvSink sink(out);
    CampaignRunner(topo, config).run(relays, sink);
    return out.str();
  };

  const std::string baseline = stream_csv(/*threads=*/1, /*shard=*/1);
  for (const int threads : {1, 2, 8})
    for (const int shard : {1, 5})
      EXPECT_EQ(baseline, stream_csv(threads, shard))
          << "threads=" << threads << " shard=" << shard;
}

// Fault columns appear in serialized output only when faults are armed:
// a fault-free run's byte stream is identical to a pre-fault build's.
TEST(CampaignFaults, FaultColumnsGatedOnFaultsEnabled) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto stream_csv = [&](const fault::FaultSpec& faults) {
    auto config = lab_config(topo);
    config.faults = faults;
    std::ostringstream out;
    CsvSink sink(out);
    CampaignRunner(topo, config).run(relays, sink);
    return out.str();
  };

  const std::string clean = stream_csv(fault::FaultSpec{});
  EXPECT_EQ(clean.find("quality"), std::string::npos);
  EXPECT_EQ(clean.find("quarantined"), std::string::npos);

  const std::string faulted = stream_csv(all_channels(0.3));
  EXPECT_NE(faulted.find(",quality,attempt,slot_failed,quarantined"),
            std::string::npos);
}

// §4.2-style graceful degradation: as fault rates rise the error
// distribution of the surviving estimates worsens smoothly — no cliff
// where a small rate wrecks every estimate.
TEST(CampaignFaults, ErrorDegradesSmoothlyWithFaultRate) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto median_error = [&](double rate) {
    auto config = lab_config(topo);
    config.faults = all_channels(rate);
    config.faults.slot_timeout = 0.0;  // isolate degradation from loss
    const auto result = CampaignRunner(topo, config).run(relays);
    return result.summary.median_abs_relative_error;
  };

  const double e0 = median_error(0.0);
  const double e1 = median_error(0.1);
  const double e2 = median_error(0.3);
  // Fault-free baseline is tight (Appendix E.5 error model).
  EXPECT_LT(e0, 0.10);
  // Each step in fault rate moves the median by a bounded amount, and
  // even the heavily faulted run keeps the median within the paper's
  // useful range — degraded evidence is rescaled, not discarded.
  EXPECT_LT(e1, e0 + 0.10);
  EXPECT_LT(e2, e0 + 0.20);
}

TEST(CampaignFaults, RetryAndQuarantineAccountingIsConsistent) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  auto config = lab_config(topo);
  config.faults = all_channels(0.0);
  config.faults.slot_timeout = 0.6;  // many first attempts fail
  config.faults.max_retries = 2;

  AggregatingSink aggregate;
  const auto stats = CampaignRunner(topo, config).run(relays, aggregate);
  const auto result = std::move(aggregate).result(stats);

  // Everything scheduled was executed (no cancellation), and the retry
  // rounds added executed slots beyond the scheduler's layout.
  EXPECT_FALSE(stats.cancelled);
  EXPECT_EQ(stats.slots_skipped, 0);
  EXPECT_GT(stats.slots_failed, 0);
  EXPECT_GT(stats.slots_retried, 0);
  EXPECT_GT(stats.slots_executed, stats.slots_retried);

  int retried = 0;
  int failed = 0;
  int quarantined = 0;
  for (const auto& est : result.relays) {
    retried += est.attempt > 0;
    failed += est.slot_failed;
    quarantined += est.quarantined;
    // Quarantine only after the retry budget is spent.
    if (est.quarantined) {
      EXPECT_TRUE(est.slot_failed);
      EXPECT_EQ(est.attempt, config.faults.max_retries);
    }
    // A successful estimate is never marked failed.
    if (est.estimate_bits > 0.0) {
      EXPECT_FALSE(est.slot_failed);
    }
  }
  EXPECT_GT(retried, 0);
  EXPECT_EQ(result.summary.relays_retried, retried);
  EXPECT_EQ(result.summary.relays_failed, failed);
  EXPECT_EQ(result.summary.relays_quarantined, quarantined);
  EXPECT_LE(result.summary.relays_quarantined, result.summary.relays_failed);
}

// With no retry budget, every failure is final: failed == quarantined and
// the failed relays report no estimate.
TEST(CampaignFaults, ZeroRetryBudgetQuarantinesImmediately) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  auto config = lab_config(topo);
  config.faults.slot_timeout = 0.6;
  config.faults.max_retries = 0;
  const auto result = CampaignRunner(topo, config).run(relays);

  EXPECT_GT(result.summary.relays_failed, 0);
  EXPECT_EQ(result.summary.relays_quarantined, result.summary.relays_failed);
  EXPECT_EQ(result.summary.relays_retried, 0);
  for (const auto& est : result.relays) {
    if (est.quarantined) {
      EXPECT_EQ(est.attempt, 0);
      EXPECT_EQ(est.estimate_bits, 0.0);
    }
  }
}

TEST(CampaignFaults, DegradedRelaysCountedInSummary) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  auto config = lab_config(topo);
  config.faults.report_truncate = 0.5;  // degrades evidence, rarely fails
  const auto result = CampaignRunner(topo, config).run(relays);

  int degraded = 0;
  for (const auto& est : result.relays)
    degraded += !est.slot_failed && !est.verification_failed &&
                est.quality < 1.0;
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(result.summary.relays_degraded, degraded);
  // Degraded-but-usable estimates still track the truth reasonably.
  for (const auto& est : result.relays) {
    if (est.quality < 1.0 && !est.slot_failed) {
      EXPECT_GT(est.estimate_bits, 0.0);
    }
  }
}

// Deliveries are in increasing slot order within each retry round
// (SlotReorderBuffer accounting holds per round), and each relay's
// attempt numbers step by one across its deliveries.
TEST(CampaignFaults, DeliveryOrderedWithinEachRetryRound) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  struct OrderSink : SlotSink {
    std::vector<std::pair<int, int>> deliveries;  // (attempt, slot)
    void slot_done(const SlotResult& slot) override {
      ASSERT_FALSE(slot.estimates.empty());
      // All estimates in one delivery share the slot's retry round.
      for (const auto& est : slot.estimates)
        ASSERT_EQ(est.attempt, slot.estimates.front().attempt);
      deliveries.emplace_back(slot.estimates.front().attempt, slot.slot);
    }
  } sink;

  auto config = lab_config(topo);
  config.threads = 4;
  config.faults.slot_timeout = 0.6;
  config.faults.max_retries = 3;
  CampaignRunner(topo, config).run(relays, sink);

  int max_attempt = 0;
  int last_attempt = 0;
  int last_slot = -1;
  for (const auto& [attempt, slot] : sink.deliveries) {
    // Rounds are delivered one after the other, slots increasing within
    // each round.
    ASSERT_GE(attempt, last_attempt);
    if (attempt > last_attempt) last_slot = -1;
    EXPECT_GT(slot, last_slot);
    last_attempt = attempt;
    last_slot = slot;
    max_attempt = std::max(max_attempt, attempt);
  }
  EXPECT_GT(max_attempt, 0);  // retries actually happened
  EXPECT_LE(max_attempt, config.faults.max_retries);
}

// Cancellation invariants with faults armed, across thread and shard
// combinations: executed + skipped covers everything scheduled, no
// delivery after the cancel, and the partial aggregate stays coherent.
TEST(CampaignFaults, CancellationInvariantsAcrossThreadsAndShards) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  for (const int threads : {1, 8}) {
    for (const int shard : {1, 4}) {
      AggregatingSink aggregate;
      int deliveries = 0;
      ProgressSink cancel_after_three(
          [&deliveries](int done, int total) {
            EXPECT_LE(done, total);
            deliveries = done;
            return done < 3;
          },
          &aggregate);

      auto config = lab_config(topo);
      config.threads = threads;
      config.shard_slots = shard;
      // Randomized layout: one relay per slot, so plenty of occupied
      // slots remain to be skipped after the third delivery.
      config.schedule = ScheduleMode::kRandomized;
      config.faults = all_channels(0.2);
      const auto stats =
          CampaignRunner(topo, config).run(relays, cancel_after_three);

      EXPECT_TRUE(stats.cancelled) << "threads=" << threads;
      EXPECT_EQ(stats.slots_executed, 3) << "threads=" << threads;
      EXPECT_EQ(stats.slots_executed, deliveries);
      EXPECT_GT(stats.slots_skipped, 0) << "threads=" << threads;

      const auto partial = std::move(aggregate).result(stats);
      EXPECT_LE(partial.summary.relays_measured,
                static_cast<int>(relays.size()));
      EXPECT_GT(partial.summary.relays_measured, 0);
    }
  }
}

// Cancelling *during a retry round* must uphold the same invariants: the
// sink stops being called, and retry slots that never ran count as
// skipped, not executed.
TEST(CampaignFaults, CancelDuringRetryRoundStopsCleanly) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  struct CancelInRetrySink : SlotSink {
    int first_round_slots = 0;
    int deliveries = 0;
    int deliveries_after_cancel = 0;
    bool cancelled = false;
    void begin(const RunPlan& plan) override {
      first_round_slots = plan.slots_to_execute;
    }
    void slot_done(const SlotResult&) override {
      if (cancelled) ++deliveries_after_cancel;
      ++deliveries;
    }
    bool on_progress(int done, int) override {
      // Cancel on the first delivery past the first round, i.e. while a
      // retry round is in flight.
      if (done > first_round_slots) cancelled = true;
      return !cancelled;
    }
  };

  for (const int threads : {1, 8}) {
    CancelInRetrySink sink;
    auto config = lab_config(topo);
    config.threads = threads;
    config.faults = all_channels(0.0);
    config.faults.slot_timeout = 0.6;  // guarantees a retry round
    config.faults.max_retries = 3;
    const auto stats = CampaignRunner(topo, config).run(relays, sink);

    ASSERT_TRUE(sink.cancelled) << "threads=" << threads
                                << ": no retry round was entered";
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(sink.deliveries_after_cancel, 0);
    EXPECT_EQ(stats.slots_executed, sink.deliveries);
    EXPECT_EQ(stats.slots_executed, sink.first_round_slots + 1);
    EXPECT_GT(stats.slots_retried, 0);
  }
}

// The campaign engine applies the same slot-length rule as scenario
// validation: armed faults may not demand more usable seconds than a slot
// has.
TEST(CampaignFaults, RejectsEvidenceFloorAboveSlotLength) {
  const auto topo = net::make_table1_hosts();
  auto config = lab_config(topo);
  config.params.slot_seconds = 4;
  EXPECT_NO_THROW(CampaignRunner(topo, config));  // inert: nothing armed
  config.faults = all_channels(0.05);
  EXPECT_THROW(CampaignRunner(topo, config), std::invalid_argument);
  config.faults.min_usable_seconds = 4;
  EXPECT_NO_THROW(CampaignRunner(topo, config));
}

// An inert FaultSpec leaves results identical to a config without one —
// the fault layer is invisible until armed.
TEST(CampaignFaults, InertSpecChangesNothing) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto baseline = CampaignRunner(topo, lab_config(topo)).run(relays);

  auto config = lab_config(topo);
  config.faults.max_retries = 7;        // policy knobs alone don't arm it
  config.faults.min_usable_seconds = 3;
  const auto with_policy = CampaignRunner(topo, config).run(relays);

  EXPECT_TRUE(baseline == with_policy);
  EXPECT_EQ(baseline.summary.relays_failed, 0);
  EXPECT_EQ(baseline.summary.relays_retried, 0);
  EXPECT_EQ(baseline.summary.relays_quarantined, 0);
  EXPECT_EQ(baseline.summary.relays_degraded, 0);
}

}  // namespace
}  // namespace flashflow::campaign
