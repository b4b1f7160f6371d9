// Golden-hash regression tests for the measurement hot path and the
// files it writes.
//
// The campaign engine promises bit-identical output for a fixed (population,
// config, seed) regardless of thread count — and the hot-path code
// (core::SlotRunner, net::FairShareSolver, the campaign worker loop) is
// explicitly required to preserve results when it is restructured for
// speed. These tests pin the full streamed CsvSink byte stream of four fixed
// scenarios to FNV-1a hashes: two recorded from the pre-workspace-refactor
// implementation, a crowded-slot scenario whose slots solve fair-share
// instances of 96 to 392 flows, and two periods of a densely filled
// randomized schedule, so any future hot-path or layout change that
// silently shifts results (an extra RNG draw, a reordered flow, a float
// reassociation) fails loudly here rather than drifting the paper
// reproductions.
//
// The file formats are pinned the same way: the golden scenario's JSONL
// stream; every stream scenarios/fault_smoke.yaml writes (results with the
// fault columns, the fault ledger, and the deterministic prefix of each
// trace line); and the serialized text of every checked-in scenario file
// plus a tiered-topology spec. scenarios/quickstart.yaml's CSV stream pins
// the §4.2 iPerf mesh, the only path by which a checked-in run gets its
// team capacities.
//
// Fig 9's benchmark clients are pinned bit for bit: every transfer record
// and throughput sample of the six load-balancing runs bench_fig09 makes.
// So are the §3 analyses: every per-relay mean and network series of a
// 400-day archive, and Fig 5's two series at a small configuration.
//
// If a change *intends* to alter results, re-record the constants from a
// trusted build (the failure message prints the new hash) and justify the
// shift in the commit message.
// The CI determinism gate drives these tests through two environment
// variables: FLASHFLOW_GOLDEN_THREADS forces a single worker thread count
// and FLASHFLOW_GOLDEN_SHARD forces a dispatch shard size. Because every
// run — whatever the thread count or shard size — must match the same
// pinned hashes, running the suite once per configuration proves the
// byte-identical-across-threads claim as a gate, not a dev-box habit.
// Unset (the default), the suite exercises 1 and 8 threads itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/archive.h"
#include "analysis/error_analysis.h"
#include "analysis/population.h"
#include "analysis/speedtest.h"
#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "core/measurement.h"
#include "net/topology.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/serialize.h"
#include "shadowsim/experiment.h"
#include "shadowsim/shadow_net.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "tor/cpu_model.h"
#include "tor/relay.h"

namespace flashflow {
namespace {

// Recorded from the pre-refactor hot path (PR 3 state) with seed 20210613.
constexpr std::uint64_t kCampaignCsvHash = 0xfa6d28d9b29064c3ULL;
constexpr std::uint64_t kScenarioCsvHash = 0x841c72e6038a41a5ULL;
// Recorded from the progressive-filling loop that rescanned every finite
// resource and active flow per iteration, seed 20210613.
constexpr std::uint64_t kCrowdedCsvHash = 0x906a92b207fb2523ULL;
// Recorded from the randomized schedule that scanned every slot for each
// relay, seed 20210613.
constexpr std::uint64_t kDenseRandomizedCsvHash = 0x65ad49797bd3025fULL;
// Recorded from the hand-written sinks and scenario serializer, before
// each file format became one field table, seed 20210613.
constexpr std::uint64_t kScenarioJsonlHash = 0x2ea0753307a44aaaULL;
constexpr std::uint64_t kFaultCsvHash = 0xa92922d64b61f922ULL;
constexpr std::uint64_t kFaultJsonlHash = 0xc6866fb3712a197dULL;
constexpr std::uint64_t kFaultLedgerHash = 0x73685fa6d357fc6fULL;
/// Over each trace line cut at `,"lane":` (the execution-dependent rest).
constexpr std::uint64_t kFaultTraceHash = 0x713b77c54c5ce90eULL;
// Re-recorded when `topology.path_model: tiered` stopped being written:
// the previous hash, 0xea91d65e9ee65887, is that of this text plus the
// line.
constexpr std::uint64_t kTieredScenarioTextHash = 0x969adbfcd2467164ULL;
// Recorded from the event-driven FlowNet iPerf mesh, before the mesh
// became one fair-share solve: scenarios/quickstart.yaml is the only
// checked-in run whose team capacities come from the §4.2 mesh.
constexpr std::uint64_t kQuickstartCsvHash = 0x0f361ab056c35659ULL;
// Recorded from Fig 9's clients on the discrete-event simulator, before
// they drove the fluid net from one loop.
constexpr std::uint64_t kFig9TransfersHash = 0xe8e1e1571cd5ed5dULL;
// Recorded from the §3 analyses that kept one window object per relay,
// window and series behind a std::map, before each relay became one row.
constexpr std::uint64_t kArchiveAnalysesHash = 0x87df189672374b82ULL;
// Recorded from the slot loop that appended each second's evidence to
// the outcomes' own series, before it wrote the workspace by index.
constexpr std::uint64_t kSlotSeriesHash = 0xa0e2d08a2df6a56eULL;

/// serialize_scenario() of each checked-in scenarios/*.yaml file.
struct ScenarioTextHash {
  const char* file;
  std::uint64_t hash;
};
constexpr ScenarioTextHash kScenarioTextHashes[] = {
    {"fault_smoke.yaml", 0x186860cf5d18513dULL},
    {"fig07.yaml", 0x96f88cdc1272722dULL},
    {"golden_smoke.yaml", 0x22aca1d7dc1ebc91ULL},
    {"measure_network.yaml", 0xe4fb36f25adecef7ULL},
    {"quickstart.yaml", 0xd4278a3dd699c727ULL},
    {"sec7.yaml", 0xd86dda1652e21153ULL},
};

int env_int(const char* name) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : 0;
}

/// Thread count forced by the CI matrix; 0 = unset (test both 1 and 8).
int forced_threads() { return env_int("FLASHFLOW_GOLDEN_THREADS"); }
/// Dispatch shard size forced by the CI matrix; 0 = auto.
int forced_shard() { return env_int("FLASHFLOW_GOLDEN_SHARD"); }

std::string campaign_csv(int threads) {
  const auto topo = net::make_table1_hosts();
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

  campaign::CampaignConfig config;
  config.measurer_hosts = {topo.find("US-E"), topo.find("NL")};
  config.measurer_capacity_bits = {net::mbit(900), net::mbit(900)};
  config.seed = 20210613;
  config.threads = threads;
  config.shard_slots = forced_shard();

  std::ostringstream out;
  campaign::CsvSink sink(out);
  campaign::CampaignRunner(topo, config).run(relays, sink);
  return out.str();
}

/// The golden scenario written out in C++. scenario_file_spec() must parse
/// to exactly this spec.
scenario::ScenarioSpec golden_program_spec(int threads) {
  // Covers the scenario materialization path on top of the campaign
  // engine: synthetic population, adversary mix, background model, and the
  // randomized §4.3 schedule.
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.0;
  pop.lognormal_sigma = 1.2;
  pop.max_capacity_bits = 900e6;
  return {.name = "golden",
          .population = scenario::SyntheticPopulationSpec{pop, 40, 0.8},
          .team = {.capacity_bits = {net::mbit(800), net::mbit(800),
                                     net::mbit(800)}},
          .adversaries = {.liar_fraction = 0.10, .forger_fraction = 0.10},
          .background = {.enabled = true,
                         .utilization_mean = 0.2,
                         .utilization_sd = 0.1},
          .schedule = campaign::ScheduleMode::kRandomized,
          .threads = threads,
          .shard_slots = forced_shard(),
          .seed = 20210613};
}

/// The same scenario loaded from the checked-in scenario file (what
/// `flashflow run scenarios/golden_smoke.yaml` executes), with the
/// thread/shard knobs applied the way the CLI's flags would.
scenario::ScenarioSpec scenario_file_spec(int threads) {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(
      scenario::default_scenario_dir() + "/golden_smoke.yaml");
  spec.threads = threads;
  spec.shard_slots = forced_shard();
  return spec;
}

/// Checks `bytes` against a recorded hash; a mismatch prints the new one.
void expect_hash(const std::string& bytes, std::uint64_t expected,
                 const std::string& what) {
  EXPECT_EQ(sim::hash_tag(bytes), expected)
      << what << " bytes shifted; new hash 0x" << std::hex
      << sim::hash_tag(bytes) << " over " << std::dec << bytes.size()
      << " bytes.";
}

/// Appends the bytes of `value` as they sit in memory.
template <typename T>
void append_bits(std::string& bytes, const T& value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  bytes.append(raw, sizeof(T));
}

template <typename Sink>
std::string spec_stream(const scenario::ScenarioSpec& spec) {
  scenario::Experiment experiment(spec);
  std::ostringstream out;
  Sink sink(out);
  experiment.run(&sink);
  return out.str();
}

std::string spec_csv(const scenario::ScenarioSpec& spec) {
  return spec_stream<campaign::CsvSink>(spec);
}

std::string scenario_csv(int threads) {
  return spec_csv(golden_program_spec(threads));
}

/// A 3-tier path model with jittered RTTs.
scenario::TopologySpec tiered_topology() {
  scenario::TopologySpec topo;
  topo.tiers = 3;
  topo.tier_rtt_s = {0.02, 0.08, 0.15, 0.03, 0.11, 0.04};
  topo.rtt_jitter = 0.1;
  return topo;
}

/// Crowded slots: 800 small relays greedy-packed onto three 1 Gbit/s
/// measurers fill 3 slots, so every per-second solve is a large fair-share
/// instance (96 to 392 flows, ~268 on average, ~266 filling iterations).
/// The other two workloads never solve more than a handful of flows at
/// once.
scenario::ScenarioSpec crowded_spec(int threads) {
  analysis::PopulationParams pop;
  pop.lognormal_mu = 14.5;
  pop.lognormal_sigma = 1.0;
  pop.max_capacity_bits = 998e6;
  return {.name = "golden_crowded",
          .population = scenario::SyntheticPopulationSpec{pop, 800},
          .topology = tiered_topology(),
          .team = {.capacity_bits = {net::gbit(1), net::gbit(1),
                                     net::gbit(1)}},
          .schedule = campaign::ScheduleMode::kGreedyPack,
          .threads = threads,
          .shard_slots = forced_shard(),
          .seed = 20210613};
}

std::string crowded_csv(int threads) {
  return spec_csv(crowded_spec(threads));
}

/// A densely filled randomized schedule: 500 relays of the §7 mixture in
/// a 2-hour period, i.e. 240 slots, so most slots hold some load and the
/// largest relays fit in only a few. Two periods run, and period 1's
/// priors are period 0's estimates clamped at the team's maximum.
scenario::ScenarioSpec dense_randomized_spec(int threads) {
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.42;
  pop.lognormal_sigma = 1.45;
  pop.max_capacity_bits = 998e6;
  core::Params params;
  params.period = sim::from_seconds(7200);
  return {.name = "golden_dense",
          .population = scenario::SyntheticPopulationSpec{pop, 500, 0.8},
          .topology = tiered_topology(),
          .team = {.capacity_bits = {net::gbit(1), net::gbit(1),
                                     net::gbit(1)}},
          .params = params,
          .schedule = campaign::ScheduleMode::kRandomized,
          .periods = 2,
          .threads = threads,
          .shard_slots = forced_shard(),
          .seed = 20210613};
}

/// Both periods' CsvSink rows, plus each period's (slots in period, slots
/// executed).
struct DenseRun {
  std::string csv;
  std::vector<std::pair<int, int>> slots;
};

DenseRun dense_randomized_run(int threads) {
  scenario::Experiment experiment(dense_randomized_spec(threads));
  std::ostringstream out;
  campaign::CsvSink sink(out);
  DenseRun run;
  experiment.run(&sink, [&run](const scenario::Experiment::PeriodRecord& r,
                               const campaign::CampaignResult&) {
    run.slots.emplace_back(r.stats.slots_in_period, r.stats.slots_executed);
  });
  run.csv = out.str();
  return run;
}

/// Every stream `flashflow run scenarios/fault_smoke.yaml --trace DIR`
/// writes, from one traced run. `trace` keeps each line's deterministic
/// prefix only: lane, shard and stage timings describe the execution.
struct FaultSmokeStreams {
  std::string csv;
  std::string jsonl;
  std::string ledger;
  std::string trace;
};

FaultSmokeStreams fault_smoke_streams(int threads) {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(
      scenario::default_scenario_dir() + "/fault_smoke.yaml");
  spec.threads = threads;
  spec.shard_slots = forced_shard();
  telemetry::Recorder recorder;
  recorder.enable_trace();
  scenario::Experiment experiment(spec);
  experiment.set_telemetry(&recorder);

  std::ostringstream csv_out, jsonl_out, ledger_out, trace_out;
  campaign::CsvSink csv(csv_out);
  campaign::JsonlSink jsonl(jsonl_out);
  campaign::FaultLedgerSink ledger(ledger_out);
  campaign::TraceJsonlSink trace(trace_out);
  campaign::FanoutSink fanout{&csv, &jsonl, &ledger, &trace};
  experiment.run(&fanout);

  FaultSmokeStreams streams{csv_out.str(), jsonl_out.str(), ledger_out.str(),
                            ""};
  std::istringstream lines(trace_out.str());
  for (std::string line; std::getline(lines, line);) {
    const std::size_t cut = line.find(",\"lane\":");
    EXPECT_NE(cut, std::string::npos) << "trace line lost its lane: " << line;
    streams.trace += line.substr(0, cut);
    streams.trace += '\n';
  }
  return streams;
}

/// Lines of `text` that contain `needle`.
int count_lines_with(const std::string& text, const std::string& needle) {
  std::istringstream lines(text);
  int count = 0;
  for (std::string line; std::getline(lines, line);)
    count += line.find(needle) != std::string::npos;
  return count;
}

TEST(GoldenDeterminism, CampaignCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  const std::string csv = campaign_csv(forced > 0 ? forced : 1);
  EXPECT_EQ(sim::hash_tag(csv), kCampaignCsvHash)
      << "campaign CSV bytes shifted (threads=" << (forced > 0 ? forced : 1)
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv) << " over " << std::dec << csv.size()
      << " bytes. Hot-path changes must be bit-identical.";
  // The golden bytes are also thread-count independent.
  if (forced <= 0) {
    EXPECT_EQ(csv, campaign_csv(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, ScenarioFileMatchesProgramSpecAndGoldenBytes) {
  const int forced = forced_threads();
  const int threads = forced > 0 ? forced : 1;

  // The checked-in file and the C++ program describe the same
  // experiment, field for field...
  const scenario::ScenarioSpec from_file = scenario_file_spec(threads);
  EXPECT_EQ(from_file, golden_program_spec(threads))
      << "scenarios/golden_smoke.yaml drifted from the C++ program";

  // ...and running the file-loaded spec produces the same pinned bytes,
  // so `flashflow run scenarios/golden_smoke.yaml` is covered by the
  // golden hash too.
  const std::string csv = spec_csv(from_file);
  EXPECT_EQ(sim::hash_tag(csv), kScenarioCsvHash)
      << "scenario-file CSV bytes shifted (threads=" << threads
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv);

  // The file also survives a serialize/parse round trip unchanged.
  EXPECT_EQ(scenario::parse_scenario(scenario::serialize_scenario(from_file)),
            from_file);
}

TEST(GoldenDeterminism, ScenarioCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  const std::string csv = scenario_csv(forced > 0 ? forced : 1);
  EXPECT_EQ(sim::hash_tag(csv), kScenarioCsvHash)
      << "scenario CSV bytes shifted (threads=" << (forced > 0 ? forced : 1)
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv) << " over " << std::dec << csv.size()
      << " bytes. Hot-path changes must be bit-identical.";
  if (forced <= 0) {
    EXPECT_EQ(csv, scenario_csv(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, CrowdedSlotCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  const std::string csv = crowded_csv(forced > 0 ? forced : 1);
  EXPECT_EQ(sim::hash_tag(csv), kCrowdedCsvHash)
      << "crowded-slot CSV bytes shifted (threads="
      << (forced > 0 ? forced : 1) << ", shard=" << forced_shard()
      << "); new hash 0x" << std::hex << sim::hash_tag(csv) << " over "
      << std::dec << csv.size()
      << " bytes. Hot-path changes must be bit-identical.";
  if (forced <= 0) {
    EXPECT_EQ(csv, crowded_csv(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, DenseRandomizedScheduleCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  SCOPED_TRACE("threads=" + std::to_string(forced > 0 ? forced : 1) +
               " shard=" + std::to_string(forced_shard()));
  const DenseRun run = dense_randomized_run(forced > 0 ? forced : 1);
  // Most of the 240 slots (not a multiple of the schedule's block size)
  // hold some load in both periods.
  const std::vector<std::pair<int, int>> slots = {{240, 215}, {240, 206}};
  EXPECT_EQ(run.slots, slots);
  expect_hash(run.csv, kDenseRandomizedCsvHash, "dense randomized CSV");
  if (forced <= 0) {
    EXPECT_EQ(run.csv, dense_randomized_run(/*threads=*/8).csv);
  }
}

TEST(GoldenDeterminism, ScenarioJsonlBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  SCOPED_TRACE("threads=" + std::to_string(forced > 0 ? forced : 1) +
               " shard=" + std::to_string(forced_shard()));
  const std::string jsonl = spec_stream<campaign::JsonlSink>(
      golden_program_spec(forced > 0 ? forced : 1));
  expect_hash(jsonl, kScenarioJsonlHash, "scenario JSONL");
  if (forced <= 0) {
    EXPECT_EQ(jsonl,
              spec_stream<campaign::JsonlSink>(golden_program_spec(8)));
  }
}

TEST(GoldenDeterminism, FaultSmokeStreamsMatchRecordedBaseline) {
  const int forced = forced_threads();
  SCOPED_TRACE("threads=" + std::to_string(forced > 0 ? forced : 1) +
               " shard=" + std::to_string(forced_shard()));
  const FaultSmokeStreams streams =
      fault_smoke_streams(forced > 0 ? forced : 1);

  // The fixture reaches every fault path the formats spell out: 9 ledger
  // rows (after the header), 3 retried estimates, and 2 estimates from
  // slots that a mid-slot measurer crash split into two segments.
  EXPECT_EQ(count_lines_with(streams.ledger, ","), 1 + 9);
  EXPECT_EQ(count_lines_with(streams.jsonl, "{") -
                count_lines_with(streams.jsonl, "\"attempt\":0,"),
            3);
  EXPECT_EQ(count_lines_with(streams.trace, "\"segments\":2,"), 2);

  expect_hash(streams.csv, kFaultCsvHash, "fault_smoke CSV");
  expect_hash(streams.jsonl, kFaultJsonlHash, "fault_smoke JSONL");
  expect_hash(streams.ledger, kFaultLedgerHash, "fault_smoke ledger");
  expect_hash(streams.trace, kFaultTraceHash, "fault_smoke trace prefix");
  if (forced <= 0) {
    const FaultSmokeStreams eight = fault_smoke_streams(8);
    EXPECT_EQ(streams.csv, eight.csv);
    EXPECT_EQ(streams.jsonl, eight.jsonl);
    EXPECT_EQ(streams.ledger, eight.ledger);
    EXPECT_EQ(streams.trace, eight.trace);
  }
}

TEST(GoldenDeterminism, QuickstartCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  SCOPED_TRACE("threads=" + std::to_string(forced > 0 ? forced : 1) +
               " shard=" + std::to_string(forced_shard()));
  const auto quickstart = [](int threads) {
    scenario::ScenarioSpec spec = scenario::load_scenario_file(
        scenario::default_scenario_dir() + "/quickstart.yaml");
    spec.threads = threads;
    spec.shard_slots = forced_shard();
    return spec_csv(spec);
  };
  const std::string csv = quickstart(forced > 0 ? forced : 1);
  expect_hash(csv, kQuickstartCsvHash, "quickstart CSV");
  if (forced <= 0) {
    EXPECT_EQ(csv, quickstart(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, Fig9TransfersMatchRecordedBits) {
  // bench_fig09's six runs: both weight files at each load level.
  const auto net = shadowsim::make_shadow_net({}, 20210617);
  const auto cmp = shadowsim::run_measurement_comparison(net, 20210618);
  std::string bytes;
  for (const double load : {1.0, 1.15, 1.30}) {
    for (const tor::BandwidthFile* weights :
         {&cmp.flashflow_file, &cmp.torflow_file}) {
      shadowsim::PerfConfig config;
      config.load_scale = load;
      const shadowsim::PerfResult perf =
          shadowsim::run_performance(net, *weights, config, 7);
      for (const trafficgen::TransferRecord& r : perf.bench.records) {
        append_bits(bytes, static_cast<std::int32_t>(r.size));
        append_bits(bytes, r.start);
        append_bits(bytes, r.ttfb_s);
        append_bits(bytes, r.ttlb_s);
        append_bits(bytes, static_cast<char>(r.timed_out));
      }
      for (const double bits : perf.throughput_series_bits)
        append_bits(bytes, bits);
    }
  }
  expect_hash(bytes, kFig9TransfersHash, "Fig 9 transfers");
}

/// Appends a series' length, then the bits of each value.
void append_series(std::string& bytes, const std::vector<double>& values) {
  append_bits(bytes, static_cast<std::uint64_t>(values.size()));
  for (const double v : values) append_bits(bytes, v);
}

TEST(GoldenDeterminism, ArchiveAnalysesMatchRecordedBits) {
  // 400 days: long enough for year windows to drop samples.
  analysis::PopulationParams params;
  params.initial_relays = 60;
  analysis::SyntheticArchive archive(
      analysis::generate_population(params, 400, 31), 32);
  analysis::ErrorAnalysis errors;
  analysis::VariationAnalysis variation;
  while (!archive.done()) {
    const analysis::Snapshot snapshot = archive.step_hour();
    errors.observe(snapshot);
    variation.observe(snapshot);
  }
  std::string bytes;
  for (std::size_t w = 0; w < 4; ++w) {
    const auto window = static_cast<analysis::Window>(w);
    append_series(bytes, errors.mean_rce_per_relay(window));
    append_series(bytes, errors.mean_rwe_per_relay(window));
    append_series(bytes, errors.nce_series(window));
    append_series(bytes, errors.nwe_series(window));
    append_series(bytes, variation.mean_advertised_rsd_per_relay(window));
    append_series(bytes, variation.mean_weight_rsd_per_relay(window));
  }
  analysis::SpeedTestConfig config;
  config.population = params;
  config.warmup_days = 15;
  config.cooldown_days = 6;
  const analysis::SpeedTestResult speed_test =
      analysis::run_speed_test_experiment(config, 17);
  append_series(bytes, speed_test.capacity_series_bits);
  append_series(bytes, speed_test.weight_error_series);
  expect_hash(bytes, kArchiveAnalysesHash, "§3 archive analyses");
}

/// Appends every series and verdict field of `out`.
void append_outcome(std::string& bytes, const core::SlotOutcome& out) {
  for (const auto* series : {&out.x_bits, &out.y_reported_bits,
                             &out.y_clamped_bits, &out.z_bits})
    append_series(bytes, *series);
  append_bits(bytes, static_cast<std::uint64_t>(out.x_by_measurer.size()));
  for (const auto& series : out.x_by_measurer) append_series(bytes, series);
  append_bits(bytes, out.estimate_bits);
  append_bits(bytes, static_cast<char>(out.verification_failed));
  append_bits(bytes, out.quality);
  append_bits(bytes, static_cast<std::int32_t>(out.usable_seconds));
  append_bits(bytes, static_cast<char>(out.failed));
  append_bits(bytes, static_cast<std::int32_t>(out.failure));
}

/// Every outcome that fig07, fault_smoke and golden_smoke stream with
/// record_outcomes on. fault_smoke's include timeouts, crashes, dropped
/// and truncated reports, liars and forgers.
std::string scenario_outcome_bytes(int threads) {
  struct OutcomeSink : campaign::SlotSink {
    std::string bytes;
    std::size_t outcomes = 0;
    void slot_done(const campaign::SlotResult& slot) override {
      for (const core::SlotOutcome& out : slot.outcomes)
        append_outcome(bytes, out);
      outcomes += slot.outcomes.size();
    }
  };
  std::string bytes;
  for (const char* file :
       {"fig07.yaml", "fault_smoke.yaml", "golden_smoke.yaml"}) {
    scenario::ScenarioSpec spec = scenario::load_scenario_file(
        scenario::default_scenario_dir() + "/" + file);
    spec.record_outcomes = true;
    spec.threads = threads;
    spec.shard_slots = forced_shard();
    OutcomeSink sink;
    scenario::Experiment(spec).run(&sink);
    EXPECT_GT(sink.outcomes, 0u) << file;
    bytes += sink.bytes;
  }
  return bytes;
}

TEST(GoldenDeterminism, SlotSeriesMatchRecordedBits) {
  const int forced = forced_threads();
  SCOPED_TRACE("threads=" + std::to_string(forced > 0 ? forced : 1) +
               " shard=" + std::to_string(forced_shard()));
  const std::string streamed = scenario_outcome_bytes(forced > 0 ? forced : 1);
  std::string bytes = streamed;
  // Single-target slots: honest, liar and forger, each rate-limited and
  // unlimited, over a seed range.
  const net::Topology topo = net::make_table1_hosts();
  const std::vector<core::MeasurerSlot> team = {
      {topo.find("US-E"), net::mbit(600), 80},
      {topo.find("NL"), net::mbit(600), 80}};
  for (const double limit_mbit : {0.0, 120.0}) {
    tor::RelayModel relay;
    relay.name = "series-relay";
    relay.nic_up_bits = relay.nic_down_bits = net::mbit(954);
    relay.rate_limit_bits = net::mbit(limit_mbit);
    relay.cpu = tor::CpuModel::us_sw();
    relay.background_demand_bits = net::mbit(40);
    for (const auto behavior : {core::TargetBehavior::kHonest,
                                core::TargetBehavior::kLieAboutBackground,
                                core::TargetBehavior::kForgeEchoes}) {
      for (std::uint64_t seed = 0; seed < 30; ++seed) {
        core::SlotRunner runner(topo, core::Params{}, sim::Rng(seed));
        append_outcome(bytes, runner.run(relay, topo.find("US-SW"), team,
                                         behavior));
      }
    }
  }
  expect_hash(bytes, kSlotSeriesHash, "slot series");
  if (forced <= 0) {
    EXPECT_EQ(streamed, scenario_outcome_bytes(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, SerializedScenarioTextMatchesRecordedBaseline) {
  const std::string dir = scenario::default_scenario_dir();
  std::set<std::string> recorded;
  for (const ScenarioTextHash& entry : kScenarioTextHashes) {
    recorded.insert(entry.file);
    expect_hash(scenario::serialize_scenario(
                    scenario::load_scenario_file(dir + "/" + entry.file)),
                entry.hash, std::string("serialized ") + entry.file);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".yaml") {
      EXPECT_TRUE(recorded.count(entry.path().filename().string()))
          << entry.path() << " has no recorded serialize_scenario hash";
    }
  }

  // No checked-in file sets topology.*: pin that section with the crowded
  // workload's tiered spec, at the default shard size.
  scenario::ScenarioSpec tiered = crowded_spec(/*threads=*/1);
  tiered.shard_slots = 0;
  expect_hash(scenario::serialize_scenario(tiered), kTieredScenarioTextHash,
              "serialized tiered spec");
}

}  // namespace
}  // namespace flashflow
