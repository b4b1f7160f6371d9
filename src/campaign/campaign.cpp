#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "campaign/sink.h"
#include "campaign/thread_pool.h"
#include "core/allocation.h"
#include "core/schedule.h"

namespace flashflow::campaign {

CampaignRunner::CampaignRunner(const net::Topology& topo,
                               CampaignConfig config)
    : topo_(topo), config_(std::move(config)) {
  config_.params.validate();
  config_.faults.validate(config_.params.slot_seconds);
  if (config_.measurer_hosts.empty())
    throw std::invalid_argument("CampaignRunner: no measurers");
  if (config_.measurer_capacity_bits.size() != config_.measurer_hosts.size())
    throw std::invalid_argument(
        "CampaignRunner: measurer capacities misaligned with measurers");
  for (const net::HostId host : config_.measurer_hosts)
    measurer_cores_.push_back(topo_.host(host).cpu_cores);
}

double CampaignRunner::team_capacity_bits() const {
  return std::accumulate(config_.measurer_capacity_bits.begin(),
                         config_.measurer_capacity_bits.end(), 0.0);
}

std::vector<double> scheduling_priors(std::span<const CampaignRelay> relays,
                                      const core::Params& params) {
  std::vector<double> priors;
  priors.reserve(relays.size());
  for (const auto& r : relays) {
    const double prior = r.prior_estimate_bits > 0.0
                             ? r.prior_estimate_bits
                             : r.model.ground_truth(params.sockets);
    if (prior <= 0.0)
      throw std::invalid_argument("scheduling_priors: relay with no capacity");
    priors.push_back(prior);
  }
  return priors;
}

PeriodLayout lay_out_period(std::span<const double> priors,
                            double team_capacity_bits,
                            const core::Params& params, ScheduleMode mode,
                            std::uint64_t period_seed) {
  PeriodLayout layout;
  if (mode == ScheduleMode::kGreedyPack) {
    auto packing = core::greedy_pack(priors, team_capacity_bits, params);
    layout.relay_slot = std::move(packing.relay_slot);
    layout.slots_in_period = packing.slots_used;
  } else {
    core::PeriodSchedule schedule(
        params, team_capacity_bits,
        period_seed ^ sim::hash_tag("campaign/schedule"));
    layout.relay_slot = schedule.schedule_old_relays(priors);
    layout.slots_in_period = schedule.slots_in_period();
  }
  return layout;
}

RunStats CampaignRunner::run(std::span<const CampaignRelay> relays,
                             SlotSink& sink) const {
  // All wall-clock reads go through the Clock seam (telemetry/clock.cpp
  // holds the library's single suppressed ND03 site); a recorder's clock
  // lets tests drive run timing deterministically.
  telemetry::Recorder* const rec = config_.telemetry;
  const telemetry::Clock& wall_clock =
      rec ? rec->time_source() : telemetry::monotonic_clock();
  const std::uint64_t wall_start = wall_clock.now_micros();
  const core::Params& params = config_.params;

  const std::vector<double> priors = scheduling_priors(relays, params);

  // Period layout: relay -> slot. Timed into a local: the recorder's
  // shards are sized at begin_run(), which needs the lane count computed
  // further down, so the observation is deferred until then.
  const std::uint64_t layout_start = rec ? rec->now() : 0;
  RunStats stats;
  const double team_capacity = team_capacity_bits();
  const PeriodLayout layout = lay_out_period(
      priors, team_capacity, params, config_.schedule, config_.seed);
  const std::vector<int>& relay_slot = layout.relay_slot;
  stats.slots_in_period = layout.slots_in_period;

  // Group relays by slot with a counting sort into one flat array: slot
  // s holds [slot_begin[s], slot_begin[s + 1]) of `members`, in relay
  // order. Only occupied slots become work items.
  int last_slot = -1;
  for (const int s : relay_slot) last_slot = std::max(last_slot, s);
  std::vector<std::size_t> slot_begin(
      static_cast<std::size_t>(last_slot + 2), 0);
  for (const int s : relay_slot) ++slot_begin[static_cast<std::size_t>(s) + 1];
  std::vector<std::size_t> occupied;
  for (std::size_t s = 0; s + 1 < slot_begin.size(); ++s) {
    if (slot_begin[s + 1] > 0) occupied.push_back(s);
    slot_begin[s + 1] += slot_begin[s];
  }
  std::vector<std::size_t> members(relay_slot.size());
  {
    std::vector<std::size_t> cursor(slot_begin.begin(), slot_begin.end() - 1);
    for (std::size_t r = 0; r < relay_slot.size(); ++r)
      members[cursor[static_cast<std::size_t>(relay_slot[r])]++] = r;
  }

  stats.simulated_seconds =
      static_cast<double>(last_slot + 1) * params.slot_seconds;
  const std::uint64_t layout_micros = rec ? rec->now() - layout_start : 0;

  // Deterministic fault oracle for this period. With all rates zero the
  // plan is inert: no slot fails, so no retry round runs and the sinks
  // emit no fault columns.
  const fault::FaultPlan fault_plan(config_.faults, config_.seed);

  RunPlan plan;
  plan.relays = static_cast<int>(relays.size());
  plan.slots_in_period = stats.slots_in_period;
  plan.slots_to_execute = static_cast<int>(occupied.size());
  plan.team_capacity_bits = team_capacity;
  plan.faults_enabled = fault_plan.enabled();
  sink.begin(plan);

  // Relay-name hashes for the per-target noise substreams, computed once
  // per run instead of once per relay per slot (the derived substreams are
  // identical either way — see ConcurrentTarget::name_hash).
  std::vector<std::uint64_t> name_hashes;
  name_hashes.reserve(relays.size());
  for (const auto& r : relays)
    name_hashes.push_back(sim::hash_tag(r.model.name));

  // Each slot task derives its RNG from the period seed and the slot index
  // alone and touches only its own relays, so the outcome is independent
  // of the thread count and of the order in which workers claim slots.
  // The slot domain tag keeps slot 0 (seed ^ 0 == seed) from replaying the
  // exact stream the measurer mesh and the period schedule consumed.
  const std::uint64_t slot_domain =
      config_.seed ^ sim::hash_tag("campaign/slot");
  ThreadPool pool(config_.threads);

  // Sharded dispatch: lanes claim `shard` contiguous slots per trip to
  // the shared counter (amortizing contention), and the reorder window is
  // sized as a small multiple of what the lanes can be working on at
  // once — bounded regardless of the period length.
  const std::size_t lane_count = pool.lanes(occupied.size());
  const std::size_t shard =
      config_.shard_slots > 0
          ? static_cast<std::size_t>(config_.shard_slots)
          : ThreadPool::default_shard(occupied.size(), lane_count);
  const std::size_t window =
      std::max<std::size_t>(4 * lane_count * shard, 2 * lane_count);

  // Work items for the current retry round. Round 0 is the scheduler's
  // layout; later rounds hold only re-queued failures, grouped into fresh
  // slots later in the period. An item's relays are the range [begin,
  // end) of `members`, which each round refills.
  struct WorkItem {
    std::size_t slot = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<WorkItem> work;
  work.reserve(occupied.size());
  for (const std::size_t s : occupied)
    work.push_back({s, slot_begin[s], slot_begin[s + 1]});

  std::atomic<bool> cancelled{false};
  // Mutated only inside the deliver callback, which the buffer serializes
  // under its own lock; read again only after parallel_for has drained.
  int delivered_count = 0;
  // Everything scheduled so far; grows when retry rounds add slots.
  int scheduled_total = static_cast<int>(occupied.size());
  int round = 0;
  int period_end = last_slot + 1;  // slots the period spans, incl. retries

  // Per-lane persistent scratch: each parallel_for lane stays on one
  // worker thread, so its SlotWorkspace and target/allocation buffers are
  // reused (without locking) across every slot the lane claims. Workspaces
  // are pure scratch — results are independent of which lane ran a slot.
  struct WorkerScratch {
    core::SlotWorkspace workspace;
    core::AllocationScratch allocation;
    std::vector<double> residual;
    std::vector<core::SlotRunner::ConcurrentTarget> targets;
    std::vector<int> target_sockets;
    telemetry::SlotProbe probe;
  };
  std::vector<WorkerScratch> scratch(lane_count);
  if (rec) {
    rec->begin_run(lane_count);
    rec->observe_stage(telemetry::Stage::kLayout, layout_micros);
    for (std::size_t l = 0; l < lane_count; ++l)
      scratch[l].probe.arm(rec->time_source(), rec->lane(l), rec->engine());
  }

  // Per relay: its slot failed in the current round. Written lock-free by
  // whichever worker ran the relay's item (a relay is in one item per
  // round), read only after the round's parallel_for has drained, in
  // deterministic (work, member) order.
  std::vector<char> failed_now(relays.size(), 0);

  const auto run_slot = [&](std::size_t lane, std::size_t w,
                            SlotReorderBuffer& reorder) {
    WorkerScratch& ws = scratch[lane];
    // Null when telemetry is off: every site below is skipped and the
    // slot executes the exact pre-telemetry instruction stream.
    telemetry::SlotProbe* const probe = ws.probe.armed() ? &ws.probe : nullptr;
    const std::uint64_t slot_start = probe ? probe->now() : 0;
    if (probe) probe->begin_slot();
    const std::size_t slot = work[w].slot;
    const std::uint64_t sub_seed =
        slot_domain ^ static_cast<std::uint64_t>(slot);
    core::SlotRunner runner(topo_, params, sim::Rng(sub_seed));
    // Every slot runs the one aggregation; an inert plan faults nothing.
    // Retry slots are fresh slot indices, so a retried relay gets fresh
    // fault draws rather than deterministically failing the same way.
    runner.arm_faults(&fault_plan, static_cast<std::uint64_t>(slot));
    runner.set_probe(probe);

    // §4.2 allocation: each relay in the slot claims f * z0 from the
    // measurers' remaining capacity, largest-residual first.
    ws.residual = config_.measurer_capacity_bits;
    const std::span<const std::size_t> slot_members(
        members.data() + work[w].begin, work[w].end - work[w].begin);
    const std::size_t n_targets = slot_members.size();
    if (ws.targets.size() < n_targets) ws.targets.resize(n_targets);
    ws.target_sockets.assign(n_targets, 0);
    for (std::size_t t = 0; t < n_targets; ++t) {
      const std::size_t r = slot_members[t];
      const auto alloc = core::allocate_greedy(
          ws.residual, params.excess_factor() * priors[r], ws.allocation);
      for (std::size_t i = 0; i < ws.residual.size(); ++i)
        ws.residual[i] -= alloc[i];
      const auto shares =
          core::make_shares(alloc, measurer_cores_, params, ws.allocation);
      // Overwrite the lane's target slot in place: the RelayModel is
      // borrowed from the population and only the team list is rebuilt.
      core::SlotRunner::ConcurrentTarget& target = ws.targets[t];
      target.relay = &relays[r].model;
      target.host = relays[r].host;
      target.behavior = relays[r].behavior;
      target.name_hash = name_hashes[r];
      target.team.clear();
      int sockets = 0;
      for (const auto& share : shares) {
        if (share.allocated_bits <= 0.0) continue;
        target.team.push_back(
            {config_.measurer_hosts[share.measurer_index],
             share.allocated_bits, share.sockets});
        sockets += share.sockets;
      }
      ws.target_sockets[t] = sockets;
    }
    // Dispatch = §4.2 allocation + target build, everything up to here.
    if (probe) probe->timing().dispatch_micros = probe->now() - slot_start;

    // The outcomes stay in the lane's workspace until its next slot.
    const std::vector<core::SlotOutcome>& outcomes = runner.run_concurrent(
        std::span<const core::SlotRunner::ConcurrentTarget>(
            ws.targets.data(), n_targets),
        ws.workspace);
    SlotResult result;
    result.slot = static_cast<int>(slot);
    result.relay_indices.assign(slot_members.begin(), slot_members.end());
    result.estimates.reserve(outcomes.size());
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      const std::size_t r = slot_members[t];
      RelayEstimate est;
      est.slot = static_cast<int>(slot);
      est.estimate_bits = outcomes[t].estimate_bits;
      est.verification_failed = outcomes[t].verification_failed;
      est.quality = outcomes[t].quality;
      est.attempt = round;
      est.slot_failed = outcomes[t].failed;
      // This round was the relay's last chance: a failure now benches it.
      est.quarantined =
          outcomes[t].failed && round >= config_.faults.max_retries;
      est.ground_truth_bits =
          relays[r].model.ground_truth(ws.target_sockets[t]);
      if (est.ground_truth_bits > 0.0 && !est.verification_failed &&
          !est.slot_failed)
        est.relative_error =
            est.estimate_bits / est.ground_truth_bits - 1.0;
      result.estimates.push_back(est);
      if (outcomes[t].failed) failed_now[r] = 1;
    }
    if (config_.record_outcomes)
      for (std::size_t t = 0; t < n_targets; ++t)
        result.outcomes.push_back(runner.recorded(ws.workspace, t));

    // The trace snapshot is taken before park(): reorder wait is not a
    // property of the slot's own work and is observed into the stage
    // histogram only.
    if (probe && rec->trace_enabled()) {
      telemetry::SlotTrace trace;
      trace.lane = static_cast<int>(lane);
      trace.shard = static_cast<int>(w / shard);
      trace.segments = probe->segments();
      trace.timing = probe->timing();
      result.trace = trace;
      probe->shard().add(probe->metrics().trace_rows);
    }

    // Park the result; the buffer blocks while w is beyond the bounded
    // window, flushes the ready prefix in slot order, and propagates any
    // sink exception.
    const std::uint64_t park_start = probe ? probe->now() : 0;
    reorder.park(w, std::move(result));
    if (probe) {
      probe->timing().reorder_micros = probe->now() - park_start;
      probe->finish_slot(n_targets);
    }
  };

  // Retry placement bookkeeping, engaged only after a round reports
  // failures: which slots already ran (or were claimed by an earlier
  // retry) and how much re-queued load each spare slot carries.
  std::vector<char> slot_taken;
  std::vector<double> retry_load;

  while (true) {
    const bool retry_round = round > 0;
    const std::uint64_t round_start = rec && retry_round ? rec->now() : 0;
    if (rec && retry_round) rec->serial().add(rec->engine().retry_rounds);
    std::fill(failed_now.begin(), failed_now.end(), 0);

    // Delivery: slots complete in any order on the pool, but the sink
    // sees them serialized and in increasing slot order within the round.
    // Workers park finished SlotResults in the bounded reorder buffer;
    // whoever completes the next undelivered slot flushes the contiguous
    // prefix. A sink exception aborts the buffer and propagates through
    // park() into parallel_for's rethrow; a false return from on_progress
    // cancels the remaining slots (and any further retry round).
    SlotReorderBuffer reorder(work.size(), window, [&](SlotResult&& ready) {
      // Deliveries are serialized under the buffer lock, so the serial
      // shard is safe to write here.
      const std::uint64_t sink_start = rec ? rec->now() : 0;
      sink.slot_done(ready);
      if (rec)
        rec->observe_stage(telemetry::Stage::kSinkSerialize,
                           rec->now() - sink_start);
      ++delivered_count;
      if (!sink.on_progress(delivered_count, scheduled_total)) {
        cancelled.store(true);
        return false;
      }
      return true;
    });

    pool.parallel_for(work.size(), shard, [&](std::size_t lane,
                                              std::size_t w) {
      if (cancelled.load()) return;
      // Any exception — from the slot computation or from the sink via
      // park() — must abort the reorder buffer before leaving the worker:
      // peers blocked beyond the bounded window are only woken by delivery
      // progress or an abort, and a slot that dies uncomputed means the
      // delivery cursor could never reach them (parallel_for stops further
      // claims and rethrows the exception after the drain; abort() is
      // idempotent when park() already aborted).
      try {
        run_slot(lane, w, reorder);
      } catch (...) {
        cancelled.store(true);
        reorder.abort();
        throw;
      }
    });

    // The round has drained; count what was actually delivered. Slots
    // computed but never handed to the sink (cancellation raced ahead of
    // them) count as skipped alongside the never-claimed ones.
    const int round_delivered = static_cast<int>(reorder.delivered());
    stats.slots_executed += round_delivered;
    if (retry_round) stats.slots_retried += round_delivered;
    if (rec && retry_round)
      rec->observe_stage(telemetry::Stage::kRetryRound,
                         rec->now() - round_start);
    if (cancelled.load()) break;

    // Collect the round's failures in deterministic (work, member) order.
    // verification_failed is not a fault: a relay that flunked the spot
    // check is never retried (outcome.failed stays false for it).
    std::vector<std::pair<std::size_t, std::size_t>> failures;  // (r, slot)
    for (const WorkItem& item : work) {
      const std::size_t before = failures.size();
      for (std::size_t k = item.begin; k < item.end; ++k) {
        const std::size_t r = members[k];
        if (failed_now[r]) failures.emplace_back(r, item.slot);
      }
      if (failures.size() > before) ++stats.slots_failed;
    }
    if (failures.empty() || round >= config_.faults.max_retries) break;

    if (slot_taken.empty()) {
      const std::size_t horizon = static_cast<std::size_t>(
          std::max(stats.slots_in_period, period_end));
      slot_taken.assign(horizon, 0);
      for (const std::size_t s : occupied) slot_taken[s] = 1;
      retry_load.assign(horizon, 0.0);
    }

    // Re-queue each failure into spare capacity strictly later in the
    // period: the earliest never-used slot after the failed one whose
    // re-queued load still fits the team. Greedy packing derives the
    // period's length from the work, so it may append fresh slots past
    // the end; the randomized schedule's period is fixed-length — a
    // failure that fits nowhere within it stays failed (not quarantined:
    // the retry budget was never spent).
    std::vector<std::pair<std::size_t, std::size_t>> placed;  // (slot, r)
    for (const auto& [r, failed_slot] : failures) {
      const double load = params.excess_factor() * priors[r];
      bool found = false;
      for (std::size_t s = failed_slot + 1; s < slot_taken.size(); ++s) {
        if (slot_taken[s]) continue;
        if (retry_load[s] > 0.0 && retry_load[s] + load > team_capacity)
          continue;
        retry_load[s] += load;
        placed.emplace_back(s, r);
        found = true;
        break;
      }
      if (!found && config_.schedule == ScheduleMode::kGreedyPack) {
        slot_taken.push_back(0);
        retry_load.push_back(load);
        placed.emplace_back(slot_taken.size() - 1, r);
      }
    }
    if (placed.empty()) break;

    std::stable_sort(placed.begin(), placed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<WorkItem> next;
    members.clear();
    for (const auto& [s, r] : placed) {
      if (next.empty() || next.back().slot != s)
        next.push_back({s, members.size(), members.size()});
      members.push_back(r);
      ++next.back().end;
      period_end = std::max(period_end, static_cast<int>(s) + 1);
    }
    // Consumed: later rounds may not re-queue into an executed slot.
    for (const auto& item : next) slot_taken[item.slot] = 1;
    work = std::move(next);
    scheduled_total += static_cast<int>(work.size());
    ++round;
  }

  stats.cancelled = cancelled.load();
  stats.slots_skipped = scheduled_total - stats.slots_executed;
  stats.slots_in_period = std::max(stats.slots_in_period, period_end);
  stats.simulated_seconds =
      std::max(stats.simulated_seconds,
               static_cast<double>(period_end) * params.slot_seconds);
  // Merge the lane shards (lane-index order, then the serial shard) into
  // the recorder's accumulated totals now that the pool has drained.
  if (rec) rec->end_run();
  stats.wall_seconds =
      static_cast<double>(wall_clock.now_micros() - wall_start) * 1e-6;
  return stats;
}

}  // namespace flashflow::campaign
