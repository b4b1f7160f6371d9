#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/sink.h"
#include "campaign/thread_pool.h"
#include "net/units.h"
#include "tor/cpu_model.h"

namespace flashflow::campaign {
namespace {

// A US-SW-hosted relay with the given operator rate limit, as in the
// paper's Internet experiments.
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

/// The whole period aggregated in memory: the streaming run into an
/// AggregatingSink.
CampaignResult run_batch(const CampaignRunner& runner,
                         std::span<const CampaignRelay> relays) {
  AggregatingSink sink;
  const RunStats stats = runner.run(relays, sink);
  return std::move(sink).result(stats);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), /*shard_size=*/0,
                    [&](std::size_t, std::size_t i) { hits[i] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64, /*shard_size=*/0,
                                 [](std::size_t, std::size_t i) {
                                   if (i % 7 == 3)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(Campaign, EndToEndOverTable1Hosts) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);
  const CampaignRunner runner(topo, lab_config(topo));
  const auto result = run_batch(runner, relays);

  ASSERT_EQ(result.relays.size(), relays.size());
  EXPECT_EQ(result.summary.relays_measured,
            static_cast<int>(relays.size()));
  EXPECT_EQ(result.summary.verification_failures, 0);
  EXPECT_GE(result.summary.slots_in_period, 2);
  EXPECT_GT(result.summary.slots_executed, 0);
  EXPECT_DOUBLE_EQ(result.summary.simulated_seconds,
                   result.summary.slots_in_period * 30.0);
  EXPECT_GT(result.summary.total_estimated_bits, 0.0);
  for (const auto& est : result.relays) {
    EXPECT_GE(est.slot, 0);
    EXPECT_LT(est.slot, result.summary.slots_in_period);
    EXPECT_GT(est.estimate_bits, 0.0);
    EXPECT_FALSE(est.verification_failed);
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  auto config1 = lab_config(topo);
  config1.threads = 1;
  auto config8 = lab_config(topo);
  config8.threads = 8;

  const auto serial = run_batch(CampaignRunner(topo, config1), relays);
  const auto parallel = run_batch(CampaignRunner(topo, config8), relays);

  // Bit-identical, not merely close: per-slot sub-seeding must make the
  // schedule of workers irrelevant. Whole-struct equality is possible
  // because CampaignSummary carries no wall-clock timing (that lives in
  // RunStats).
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.relays, parallel.relays);
  EXPECT_EQ(serial.summary, parallel.summary);
}

TEST(Campaign, StreamedSinkOutputIdenticalAcrossThreadCounts) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto stream_csv = [&](int threads) {
    auto config = lab_config(topo);
    config.threads = threads;
    std::ostringstream out;
    CsvSink sink(out);
    CampaignRunner(topo, config).run(relays, sink);
    return out.str();
  };
  const auto stream_jsonl = [&](int threads) {
    auto config = lab_config(topo);
    config.threads = threads;
    std::ostringstream out;
    JsonlSink sink(out);
    CampaignRunner(topo, config).run(relays, sink);
    return out.str();
  };

  // Slots are delivered in increasing slot order regardless of completion
  // order, so the streamed bytes — not just the aggregate — match.
  const std::string csv1 = stream_csv(1);
  EXPECT_EQ(csv1, stream_csv(8));
  EXPECT_NE(csv1.find("period,relay,slot"), std::string::npos);
  EXPECT_EQ(stream_jsonl(1), stream_jsonl(8));
}

TEST(Campaign, StreamedBytesIdenticalAcrossShardSizes) {
  // The dispatch shard size (and the reorder window derived from it) is a
  // pure perf knob: the streamed bytes must not move for any combination
  // of shard size and thread count.
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  const auto stream_csv = [&](int threads, int shard) {
    auto config = lab_config(topo);
    config.threads = threads;
    config.shard_slots = shard;
    std::ostringstream out;
    CsvSink sink(out);
    CampaignRunner(topo, config).run(relays, sink);
    return out.str();
  };

  const std::string baseline = stream_csv(/*threads=*/1, /*shard=*/0);
  for (const int threads : {1, 8})
    for (const int shard : {1, 2, 1000})
      EXPECT_EQ(baseline, stream_csv(threads, shard))
          << "threads=" << threads << " shard=" << shard;
}

TEST(Campaign, SinkSeesEverySlotInOrderWithPlan) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  struct RecordingSink : SlotSink {
    RunPlan plan;
    std::vector<int> slots;
    std::size_t relays_seen = 0;
    int progress_calls = 0;
    void begin(const RunPlan& p) override { plan = p; }
    void slot_done(const SlotResult& slot) override {
      slots.push_back(slot.slot);
      relays_seen += slot.relay_indices.size();
      ASSERT_EQ(slot.relay_indices.size(), slot.estimates.size());
      EXPECT_TRUE(slot.outcomes.empty());  // record_outcomes off
    }
    bool on_progress(int done, int total) override {
      ++progress_calls;
      EXPECT_LE(done, total);
      return true;
    }
  } sink;

  auto config = lab_config(topo);
  config.threads = 4;
  const auto stats = CampaignRunner(topo, config).run(relays, sink);

  EXPECT_EQ(sink.plan.relays, static_cast<int>(relays.size()));
  EXPECT_EQ(sink.plan.slots_to_execute, static_cast<int>(sink.slots.size()));
  EXPECT_EQ(sink.relays_seen, relays.size());
  EXPECT_EQ(sink.progress_calls, stats.slots_executed);
  EXPECT_FALSE(stats.cancelled);
  EXPECT_EQ(stats.slots_skipped, 0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_TRUE(std::is_sorted(sink.slots.begin(), sink.slots.end()));
}

TEST(Campaign, ProgressHookCancelsRemainingSlots) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  struct CancelAfterFirst : SlotSink {
    void slot_done(const SlotResult&) override {}
    bool on_progress(int done, int) override { return done < 1; }
  } cancel;
  AggregatingSink aggregate;
  FanoutSink cancel_after_first{&aggregate, &cancel};
  auto config = lab_config(topo);
  config.threads = 2;
  const auto stats = CampaignRunner(topo, config).run(relays, cancel_after_first);

  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.slots_executed, 1);
  EXPECT_GT(stats.slots_skipped, 0);

  // A partial run's summary covers only the delivered relays: relays
  // whose slot never ran must not dilute the error statistics.
  const auto partial = std::move(aggregate).result(stats);
  int delivered = 0;
  for (const auto& est : partial.relays) delivered += est.slot >= 0;
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, static_cast<int>(relays.size()));
  EXPECT_EQ(partial.summary.relays_measured, delivered);
  EXPECT_GT(partial.summary.mean_abs_relative_error, 0.0);
}

TEST(Campaign, FanoutSinkForwardsToEverySinkAndAnyOneCancels) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);
  auto config = lab_config(topo);
  config.threads = 2;

  // Two CsvSinks behind one fan-out write the bytes a lone sink does.
  std::ostringstream first_out, second_out, alone_out;
  CsvSink first_csv(first_out), second_csv(second_out), alone(alone_out);
  FanoutSink both{&first_csv, &second_csv};
  CampaignRunner(topo, config).run(relays, both);
  CampaignRunner(topo, config).run(relays, alone);
  EXPECT_FALSE(first_out.str().empty());
  EXPECT_EQ(first_out.str(), second_out.str());
  EXPECT_EQ(first_out.str(), alone_out.str());

  // Calls arrive in the order the sinks were given; either sink can
  // cancel, and both are asked on every on_progress call even after one
  // has said stop.
  struct CountingSink : SlotSink {
    CountingSink(char name, bool cancel, std::string& log)
        : name(name), cancel(cancel), log(log) {}
    char name;
    bool cancel;
    std::string& log;
    int progress_calls = 0;
    void begin(const RunPlan&) override { log += name; }
    void slot_done(const SlotResult&) override { log += name; }
    bool on_progress(int, int) override {
      ++progress_calls;
      return !cancel;
    }
  };
  for (const bool first_cancels : {true, false}) {
    SCOPED_TRACE(first_cancels ? "first cancels" : "second cancels");
    std::string log;
    CountingSink first('a', first_cancels, log);
    CountingSink second('b', !first_cancels, log);
    FanoutSink fanout{&first, nullptr, &second};  // null is skipped
    const RunStats stats = CampaignRunner(topo, config).run(relays, fanout);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.slots_executed, 1);
    EXPECT_EQ(log, "abab");  // begin, then the one delivered slot
    EXPECT_EQ(first.progress_calls, 1);
    EXPECT_EQ(second.progress_calls, 1);
  }
}

TEST(Campaign, RecordOutcomesAttachesPerSecondSeries) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);

  struct OutcomeSink : SlotSink {
    std::size_t outcomes = 0;
    std::size_t seconds = 0;
    void slot_done(const SlotResult& slot) override {
      ASSERT_EQ(slot.outcomes.size(), slot.relay_indices.size());
      outcomes += slot.outcomes.size();
      for (const auto& out : slot.outcomes) seconds += out.x_bits.size();
    }
  } sink;

  auto config = lab_config(topo);
  config.record_outcomes = true;
  CampaignRunner(topo, config).run(relays, sink);
  EXPECT_EQ(sink.outcomes, relays.size());
  // One per-second sample per slot second for every relay.
  EXPECT_EQ(sink.seconds, relays.size() * 30);
}

TEST(Campaign, EstimatesTrackKnownCapacities) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);
  const CampaignRunner runner(topo, lab_config(topo));
  const auto result = run_batch(runner, relays);

  // Appendix E.5 error model: accepted estimates land in
  // ((1-eps1)x, (1+eps2)x) = (0.80x, 1.05x); allow the simulator's noise
  // processes a little extra slack on individual relays.
  for (std::size_t i = 0; i < result.relays.size(); ++i) {
    const auto& est = result.relays[i];
    ASSERT_GT(est.ground_truth_bits, 0.0);
    const double ratio = est.estimate_bits / est.ground_truth_bits;
    EXPECT_GT(ratio, 0.70) << relays[i].model.name;
    EXPECT_LT(ratio, 1.15) << relays[i].model.name;
  }
  EXPECT_LT(result.summary.mean_abs_relative_error, 0.15);
  EXPECT_NEAR(result.summary.total_estimated_bits,
              result.summary.total_true_bits,
              0.15 * result.summary.total_true_bits);
}

TEST(Campaign, RandomizedScheduleSpreadsAcrossPeriod) {
  const auto topo = net::make_table1_hosts();
  const auto relays = small_population(topo);
  auto config = lab_config(topo);
  config.schedule = ScheduleMode::kRandomized;
  const auto result = run_batch(CampaignRunner(topo, config), relays);

  // A day of 30-second slots.
  EXPECT_EQ(result.summary.slots_in_period, 2880);
  for (const auto& est : result.relays) {
    EXPECT_GE(est.slot, 0);
    EXPECT_LT(est.slot, 2880);
    EXPECT_GT(est.estimate_bits, 0.0);
  }
}

TEST(Campaign, RejectsBadConfig) {
  const auto topo = net::make_table1_hosts();
  CampaignConfig no_measurers;
  EXPECT_THROW(CampaignRunner(topo, no_measurers), std::invalid_argument);

  auto misaligned = lab_config(topo);
  misaligned.measurer_capacity_bits = {net::mbit(900)};
  EXPECT_THROW(CampaignRunner(topo, misaligned), std::invalid_argument);

  // Every measurer needs a capacity: the runner measures no team itself.
  auto no_capacities = lab_config(topo);
  no_capacities.measurer_capacity_bits.clear();
  EXPECT_THROW(CampaignRunner(topo, no_capacities), std::invalid_argument);

  // Params are validated up front (core::Params::validate).
  auto bad_params = lab_config(topo);
  bad_params.params.ratio = 1.0;
  EXPECT_THROW(CampaignRunner(topo, bad_params), std::invalid_argument);
}

}  // namespace
}  // namespace flashflow::campaign
