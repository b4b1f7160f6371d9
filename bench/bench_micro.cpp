// Microbenchmarks (google-benchmark) for the hot paths under every
// experiment: the max-min fair solver (one-shot and a slot's prepared
// per-second solves), the fluid network, and the statistics kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "metrics/stats.h"
#include "metrics/timeseries.h"
#include "net/fairshare.h"
#include "net/flownet.h"
#include "sim/random.h"

namespace {

using namespace flashflow;

void BM_MaxMinFair(benchmark::State& state) {
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(7);
  std::vector<net::FairShareResource> resources(32);
  for (auto& r : resources) r.capacity = rng.uniform(1e6, 1e9);
  std::vector<net::FairShareFlow> flows(flows_n);
  for (auto& f : flows) {
    for (int u = 0; u < 3; ++u)
      f.resources.push_back(
          static_cast<std::size_t>(rng.uniform_int(0, 31)));
    f.weight = rng.uniform(0.5, 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair_rates(resources, flows));
  }
}
BENCHMARK(BM_MaxMinFair)->Arg(16)->Arg(64)->Arg(256);

// One slot's per-second solves, core::SlotRunner's shape: three shared
// measurer NICs, then per target a NIC and a relay crossed by the same
// flows (twins). Each target is measured by p of the measurers, each flow
// weighted 160 / p sockets (integer division, as core::make_shares
// splits them) and capped near 2.25 z / p, with z drawn like the
// crowded_slots workload's relays. The caps on a measurer NIC sum below
// its capacity, so the NICs are slack and never live. One prepare, then 30
// solve_prepared calls while the relay capacities move. The target counts
// straddle FairShareSolver::kIndexCutoff live resources (one per target).
void BM_SlotSolvePrepared(benchmark::State& state) {
  constexpr int kSeconds = 30;
  const auto targets = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(19);
  std::vector<net::FairShareResource> resources(3 + 2 * targets);
  for (std::size_t m = 0; m < 3; ++m) resources[m].capacity = 1e9;
  std::vector<double> z(targets);
  std::vector<net::FairShareFlow> flows;
  for (std::size_t t = 0; t < targets; ++t) {
    z[t] = std::min(rng.log_normal(14.5, 1.0), 998e6);
    resources[3 + 2 * t].capacity = 954e6;
    const auto participants = rng.uniform_int(1, 3);
    const auto first = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < participants; ++i) {
      net::FairShareFlow f;
      f.resources = {static_cast<std::size_t>((first + i) % 3), 3 + 2 * t,
                     4 + 2 * t};
      f.weight = static_cast<double>(160 / participants);
      f.cap = 2.25 * z[t] * rng.uniform(0.6, 1.0) /
              static_cast<double>(participants);
      flows.push_back(std::move(f));
    }
  }
  std::vector<double> relay_capacity(kSeconds * targets);
  for (std::size_t k = 0; k < relay_capacity.size(); ++k)
    relay_capacity[k] = z[k % targets] * rng.uniform(0.7, 1.3);

  net::FairShareSolver solver;
  solver.prepare(flows, resources.size());
  for (auto _ : state) {
    for (std::size_t s = 0; s < kSeconds; ++s) {
      for (std::size_t t = 0; t < targets; ++t)
        resources[4 + 2 * t].capacity = relay_capacity[s * targets + t];
      benchmark::DoNotOptimize(solver.solve_prepared(resources).data());
    }
  }
  const auto solves =
      static_cast<double>(state.iterations()) * static_cast<double>(kSeconds);
  state.SetItemsProcessed(static_cast<std::int64_t>(solves));
  // The solver's own work counts, per solve.
  const net::FairShareCounters work = solver.take_counters();
  state.counters["steps"] = static_cast<double>(work.fill_steps) / solves;
  state.counters["quotients"] =
      static_cast<double>(work.exact_quotients) / solves;
}
BENCHMARK(BM_SlotSolvePrepared)
    ->Arg(3)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(300);

void BM_FlowNetAddRemove(benchmark::State& state) {
  net::FlowNet netw;
  std::vector<net::ResourceId> resources;
  for (int i = 0; i < 16; ++i) resources.push_back(netw.add_resource(1e9));
  sim::Rng rng(9);
  for (auto _ : state) {
    const auto id = netw.add_flow(
        {resources[static_cast<std::size_t>(rng.uniform_int(0, 15))],
         resources[static_cast<std::size_t>(rng.uniform_int(0, 15))]},
        std::numeric_limits<double>::infinity(), 1e9);
    netw.remove_flow(id);
  }
}
BENCHMARK(BM_FlowNetAddRemove);

void BM_MedianOf30(benchmark::State& state) {
  sim::Rng rng(11);
  std::vector<double> xs(30);
  for (auto& x : xs) x = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::median(metrics::as_span(xs)));
  }
}
BENCHMARK(BM_MedianOf30);

void BM_TrailingMaxPush(benchmark::State& state) {
  metrics::TrailingMax max(8760);
  sim::Rng rng(13);
  for (auto _ : state) {
    max.push(rng.uniform(0.0, 1.0));
    benchmark::DoNotOptimize(max.max());
  }
}
BENCHMARK(BM_TrailingMaxPush);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(17);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

}  // namespace

BENCHMARK_MAIN();
