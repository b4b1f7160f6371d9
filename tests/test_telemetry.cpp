// Telemetry determinism suite (docs/determinism.md clause T1).
//
// The observability layer promises: attaching a Recorder (and the trace
// sink) never changes a result byte, the merged totals of every
// deterministic metric are identical across thread counts and shard
// sizes, and the per-slot trace's non-timing prefix is byte-identical
// too.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "tor/cpu_model.h"

namespace flashflow {
namespace {

// Same pinned constants as tests/test_golden_determinism.cpp: a run with
// telemetry attached must reproduce the exact golden bytes.
constexpr std::uint64_t kCampaignCsvHash = 0xfa6d28d9b29064c3ULL;
constexpr std::uint64_t kScenarioCsvHash = 0x841c72e6038a41a5ULL;

std::vector<campaign::CampaignRelay> golden_relays(
    const net::Topology& topo) {
  std::vector<campaign::CampaignRelay> relays;
  for (const double limit : {10, 25, 50, 75, 100, 150, 200, 250, 40, 120}) {
    campaign::CampaignRelay r;
    r.model.name = "relay-" + std::to_string(static_cast<int>(limit));
    r.model.nic_up_bits = r.model.nic_down_bits = net::mbit(954);
    r.model.rate_limit_bits = net::mbit(limit);
    r.model.cpu = tor::CpuModel::us_sw();
    r.host = topo.find("US-SW");
    relays.push_back(std::move(r));
  }
  return relays;
}

campaign::CampaignConfig golden_config(const net::Topology& topo,
                                       int threads, int shard) {
  campaign::CampaignConfig config;
  config.measurer_hosts = {topo.find("US-E"), topo.find("NL")};
  config.measurer_capacity_bits = {net::mbit(900), net::mbit(900)};
  config.seed = 20210613;
  config.threads = threads;
  config.shard_slots = shard;
  return config;
}

/// Runs the golden campaign with a recorder (trace armed) attached and
/// returns the streamed CSV plus the merged telemetry snapshot.
std::pair<std::string, telemetry::Snapshot> run_with_recorder(int threads,
                                                             int shard) {
  const auto topo = net::make_table1_hosts();
  telemetry::Recorder recorder;
  recorder.enable_trace();
  campaign::CampaignConfig config = golden_config(topo, threads, shard);
  config.telemetry = &recorder;

  std::ostringstream out;
  campaign::CsvSink sink(out);
  campaign::CampaignRunner(topo, config).run(golden_relays(topo), sink);
  return {out.str(), recorder.snapshot()};
}

std::string run_trace(int threads, int shard) {
  const auto topo = net::make_table1_hosts();
  telemetry::Recorder recorder;
  recorder.enable_trace();
  campaign::CampaignConfig config = golden_config(topo, threads, shard);
  config.telemetry = &recorder;

  std::ostringstream out;
  campaign::TraceJsonlSink sink(out);
  campaign::CampaignRunner(topo, config).run(golden_relays(topo), sink);
  return out.str();
}

/// The deterministic prefix of one trace line: everything before the
/// execution-dependent lane/shard/timing fields (the format contract in
/// campaign/sink.h, trace_schema(), pins the field order).
std::string deterministic_prefix(const std::string& line) {
  const std::size_t cut = line.find(",\"lane\":");
  EXPECT_NE(cut, std::string::npos) << "trace line lost its lane field: "
                                    << line;
  return line.substr(0, cut);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

TEST(TelemetryUnit, HistogramBucketsAreBitWidths) {
  EXPECT_EQ(telemetry::histogram_bucket(0), 0u);
  EXPECT_EQ(telemetry::histogram_bucket(1), 1u);
  EXPECT_EQ(telemetry::histogram_bucket(2), 2u);
  EXPECT_EQ(telemetry::histogram_bucket(3), 2u);
  EXPECT_EQ(telemetry::histogram_bucket(4), 3u);
  EXPECT_EQ(telemetry::histogram_bucket((1u << 14) - 1), 14u);
  // Everything at or beyond 2^14 lands in the last bucket.
  EXPECT_EQ(telemetry::histogram_bucket(1u << 14),
            telemetry::kHistogramBuckets - 1);
  EXPECT_EQ(telemetry::histogram_bucket(~std::uint64_t{0}),
            telemetry::kHistogramBuckets - 1);
}

TEST(TelemetryDeterminism, GoldenBytesUnchangedWithRecorderAttached) {
  // Clause T1, half one: telemetry observes the golden campaign without
  // moving a single byte — same pinned hash as the no-recorder suite.
  const std::string csv = run_with_recorder(/*threads=*/1, /*shard=*/0).first;
  EXPECT_EQ(sim::hash_tag(csv), kCampaignCsvHash)
      << "attaching a telemetry recorder changed the campaign bytes";
}

TEST(TelemetryDeterminism, GoldenScenarioBytesUnchangedWithRecorder) {
  // Same check through the scenario layer (Experiment::set_telemetry).
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.0;
  pop.lognormal_sigma = 1.2;
  pop.max_capacity_bits = 900e6;
  const scenario::ScenarioSpec spec{
      .name = "golden",
      .population = scenario::SyntheticPopulationSpec{pop, 40, 0.8},
      .team = {.capacity_bits = {net::mbit(800), net::mbit(800),
                                 net::mbit(800)}},
      .adversaries = {.liar_fraction = 0.10, .forger_fraction = 0.10},
      .background = {.enabled = true,
                     .utilization_mean = 0.2,
                     .utilization_sd = 0.1},
      .schedule = campaign::ScheduleMode::kRandomized,
      .threads = 1,
      .seed = 20210613};

  telemetry::Recorder recorder;
  scenario::Experiment experiment(spec);
  experiment.set_telemetry(&recorder);
  std::ostringstream out;
  campaign::CsvSink sink(out);
  experiment.run(&sink);
  EXPECT_EQ(sim::hash_tag(out.str()), kScenarioCsvHash)
      << "attaching a telemetry recorder changed the scenario bytes";

  // The recorder actually observed the run.
  const telemetry::Snapshot snap = recorder.snapshot();
  std::uint64_t slots = 0, relays = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "campaign/slots") slots = value;
    if (name == "campaign/relays") relays = value;
  }
  EXPECT_GT(slots, 0u);
  EXPECT_EQ(relays, 40u);
}

TEST(TelemetryDeterminism, MergedTotalsIdenticalAcrossThreadsAndShards) {
  // Per-lane shards merge in lane-index order, so every deterministic
  // metric must agree exactly across the threads x shard matrix. Stage
  // timing histograms hold wall micros (machine-dependent buckets) but
  // their observation *counts* are deterministic.
  const auto [base_csv, base] = run_with_recorder(/*threads=*/1,
                                                 /*shard=*/1);
  const struct {
    int threads;
    int shard;
  } configs[] = {{1, 5}, {8, 1}, {8, 5}};

  for (const auto& config : configs) {
    const auto [csv, snap] = run_with_recorder(config.threads,
                                               config.shard);
    SCOPED_TRACE("threads=" + std::to_string(config.threads) +
                 " shard=" + std::to_string(config.shard));
    EXPECT_EQ(csv, base_csv);
    EXPECT_EQ(snap.counters, base.counters);
    EXPECT_EQ(snap.gauges, base.gauges);

    ASSERT_EQ(snap.histograms.size(), base.histograms.size());
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const auto& [name, hist] = snap.histograms[i];
      const auto& [base_name, base_hist] = base.histograms[i];
      ASSERT_EQ(name, base_name);
      if (name.rfind("stage/", 0) == 0) {
        EXPECT_EQ(hist.count, base_hist.count) << name;
      } else {
        EXPECT_EQ(hist, base_hist) << name;
      }
    }
  }
}

TEST(TelemetryDeterminism, TraceNonTimingFieldsByteIdenticalAcrossThreads) {
  // The trace sink receives slots in slot order through the reorder
  // buffer, so everything before the lane field — slot, relay, segments,
  // attempt, failure flags, quality — is byte-identical at any thread
  // count or shard size.
  const std::vector<std::string> base = split_lines(run_trace(1, 1));
  ASSERT_FALSE(base.empty());
  std::vector<std::string> base_prefix;
  for (const auto& line : base)
    base_prefix.push_back(deterministic_prefix(line));

  for (const auto& [threads, shard] :
       std::vector<std::pair<int, int>>{{1, 5}, {8, 1}, {8, 5}}) {
    const std::vector<std::string> lines =
        split_lines(run_trace(threads, shard));
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " shard=" + std::to_string(shard));
    ASSERT_EQ(lines.size(), base_prefix.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
      EXPECT_EQ(deterministic_prefix(lines[i]), base_prefix[i]);
  }
}

TEST(TelemetryDeterminism, MetricsJsonIsStableAcrossThreadCounts) {
  // write_metrics emits sorted names and deterministic counter values;
  // with the stage histograms' wall-time numbers being the only moving
  // part, the counters block must match byte for byte.
  const auto run1 = run_with_recorder(1, 0);
  const auto run8 = run_with_recorder(8, 0);
  EXPECT_EQ(run1.second.counters, run8.second.counters);

  telemetry::Recorder empty;
  std::ostringstream out;
  empty.write_metrics(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"flashflow_metrics\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"campaign/slots\""), std::string::npos);
  EXPECT_NE(json.find("\"stage/solver_solve\""), std::string::npos);
}

TEST(TelemetryDeterminism, SolverWorkCountersMatchAcrossThreadCounts) {
  // The fair-share solver counts its filling iterations and exact step
  // quotients per slot segment; the totals depend on the slots alone, not
  // on which lane solved them.
  const auto count = [](const telemetry::Snapshot& snap,
                        std::string_view name) {
    for (const auto& [counter, value] : snap.counters)
      if (counter == name) return value;
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  const telemetry::Snapshot one = run_with_recorder(1, 0).second;
  const telemetry::Snapshot eight = run_with_recorder(8, 0).second;
  for (const std::string_view name :
       {"solver/fill_steps", "solver/exact_quotients"}) {
    EXPECT_GT(count(one, name), 0u) << name;
    EXPECT_EQ(count(one, name), count(eight, name)) << name;
  }
  // Every solve of a segment takes at least one filling step.
  EXPECT_GE(count(one, "solver/fill_steps"),
            count(one, "solver/solve_seconds"));
}

}  // namespace
}  // namespace flashflow
