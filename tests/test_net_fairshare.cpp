#include "net/fairshare.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "sim/random.h"

namespace flashflow::net {
namespace {

TEST(FairShare, SingleFlowGetsFullCapacity) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(1);
  flows[0].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, EqualSplit) {
  const std::vector<FairShareResource> res = {{90.0}};
  std::vector<FairShareFlow> flows(3);
  for (auto& f : flows) f.resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  for (const double r : rates) EXPECT_NEAR(r, 30.0, 1e-9);
}

TEST(FairShare, WeightedSplit) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].weight = 3.0;
  flows[1].resources = {0};
  flows[1].weight = 1.0;
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 75.0, 1e-9);
  EXPECT_NEAR(rates[1], 25.0, 1e-9);
}

TEST(FairShare, CapFreesCapacityForOthers) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].cap = 10.0;
  flows[1].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
  EXPECT_NEAR(rates[1], 90.0, 1e-9);
}

TEST(FairShare, ClassicTriangle) {
  // Two resources; flow A uses both, B uses first, C uses second.
  const std::vector<FairShareResource> res = {{100.0}, {100.0}};
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0, 1};
  flows[1].resources = {0};
  flows[2].resources = {1};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 50.0, 1e-9);
  EXPECT_NEAR(rates[1], 50.0, 1e-9);
  EXPECT_NEAR(rates[2], 50.0, 1e-9);
}

TEST(FairShare, BottleneckChain) {
  // Tight first link limits the shared flow; second link's leftover goes to
  // the local flow.
  const std::vector<FairShareResource> res = {{10.0}, {100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0, 1};
  flows[1].resources = {1};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
  EXPECT_NEAR(rates[1], 90.0, 1e-9);
}

TEST(FairShare, UnconstrainedFlowGetsInfinity) {
  const std::vector<FairShareResource> res = {{0.0}};  // capacity <= 0
  std::vector<FairShareFlow> flows(1);
  flows[0].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_TRUE(std::isinf(rates[0]));
}

TEST(FairShare, ZeroCapFlowFrozenImmediately) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].cap = 0.0;
  flows[1].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_NEAR(rates[1], 100.0, 1e-9);
}

TEST(FairShare, RejectsBadInput) {
  const std::vector<FairShareResource> res = {{10.0}};
  std::vector<FairShareFlow> bad_weight(1);
  bad_weight[0].resources = {0};
  bad_weight[0].weight = 0.0;
  EXPECT_THROW(max_min_fair_rates(res, bad_weight), std::invalid_argument);

  // Non-finite weights and NaN caps defeat the filling's comparisons: a
  // NaN weight would turn every flow's rate into inf, an inf weight would
  // return NaN, and a NaN cap would silently mean "uncapped". An infinite
  // cap is the documented default and stays valid.
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    std::vector<FairShareFlow> non_finite(2);
    non_finite[0].resources = {0};
    non_finite[1].resources = {0};
    non_finite[1].weight = weight;
    EXPECT_THROW(max_min_fair_rates(res, non_finite), std::invalid_argument)
        << "weight " << weight;
  }
  std::vector<FairShareFlow> nan_cap(1);
  nan_cap[0].resources = {0};
  nan_cap[0].cap = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(max_min_fair_rates(res, nan_cap), std::invalid_argument);

  std::vector<FairShareFlow> bad_resource(1);
  bad_resource[0].resources = {5};
  EXPECT_THROW(max_min_fair_rates(res, bad_resource), std::out_of_range);
}

TEST(FairShare, EmptyFlowsOk) {
  const std::vector<FairShareResource> res = {{10.0}};
  EXPECT_TRUE(max_min_fair_rates(res, {}).empty());
}

// --------------------------- solver reuse ---------------------------------

TEST(FairShareSolver, ReusedSolverMatchesFreshSolves) {
  // Two successive solves on one solver must equal two fresh solves: the
  // scratch (frozen/remaining/active_weight/saturation epochs) never leaks
  // state between calls. The second problem is shaped to stress stale
  // state: more flows and resources than the first, then fewer.
  const std::vector<FairShareResource> res_a = {{100.0}, {60.0}};
  std::vector<FairShareFlow> flows_a(3);
  flows_a[0].resources = {0, 1};
  flows_a[1].resources = {0};
  flows_a[1].cap = 12.0;
  flows_a[2].resources = {1};
  flows_a[2].weight = 2.0;

  const std::vector<FairShareResource> res_b = {{50.0}, {80.0}, {10.0}};
  std::vector<FairShareFlow> flows_b(5);
  for (std::size_t f = 0; f < flows_b.size(); ++f)
    flows_b[f].resources = {f % 3};
  flows_b[4].resources = {0, 1, 2};
  flows_b[1].cap = 0.0;  // frozen immediately

  const std::vector<FairShareResource> res_c = {{7.0}};
  std::vector<FairShareFlow> flows_c(1);
  flows_c[0].resources = {0};

  FairShareSolver reused;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [res, flows] :
         {std::pair(&res_a, &flows_a), std::pair(&res_b, &flows_b),
          std::pair(&res_c, &flows_c)}) {
      const auto from_reused = reused.solve(*res, *flows);
      const auto fresh = max_min_fair_rates(*res, *flows);
      ASSERT_EQ(from_reused.size(), fresh.size());
      for (std::size_t f = 0; f < fresh.size(); ++f)
        EXPECT_DOUBLE_EQ(from_reused[f], fresh[f]) << "flow " << f;
    }
  }
}

TEST(FairShareSolver, PreparedSolvesMatchOneShot) {
  // prepare() + repeated solve_prepared() against varying capacities (the
  // per-second slot pattern) must equal a fresh solve per capacity set.
  std::vector<FairShareFlow> flows(4);
  flows[0].resources = {0, 2};
  flows[0].weight = 2.0;
  flows[1].resources = {0, 1};
  flows[1].cap = 15.0;
  flows[2].resources = {1, 2};
  flows[2].cap = 0.0;  // frozen at prepare time
  flows[3].resources = {2};

  FairShareSolver solver;
  solver.prepare(flows, 3);
  for (const double relay_cap : {40.0, 5.0, 0.0, 123.456}) {
    const std::vector<FairShareResource> res = {
        {100.0}, {30.0}, {relay_cap}};
    const auto prepared = solver.solve_prepared(res);
    const auto fresh = max_min_fair_rates(res, flows);
    ASSERT_EQ(prepared.size(), fresh.size());
    for (std::size_t f = 0; f < fresh.size(); ++f)
      EXPECT_DOUBLE_EQ(prepared[f], fresh[f])
          << "flow " << f << " at relay_cap " << relay_cap;
  }
  // A mismatched resource count is a caller bug, not a silent misread.
  const std::vector<FairShareResource> wrong = {{1.0}};
  EXPECT_THROW(solver.solve_prepared(wrong), std::invalid_argument);
}

TEST(FairShareSolver, FailedPrepareInvalidatesPreparedState) {
  // A prepare() that throws mid-validation must not leave a half-built
  // flow set behind: solve_prepared afterwards fails cleanly instead of
  // indexing stale state, and solve_prepared before any prepare at all is
  // rejected too.
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{10.0}, {20.0}};
  EXPECT_THROW(solver.solve_prepared(res), std::logic_error);

  std::vector<FairShareFlow> good(5);
  for (auto& f : good) f.resources = {0};
  solver.prepare(good, res.size());

  std::vector<FairShareFlow> bad(2);
  bad[0].resources = {0};
  bad[1].resources = {7};  // out of range: throws mid-prepare
  EXPECT_THROW(solver.prepare(bad, res.size()), std::out_of_range);
  EXPECT_THROW(solver.solve_prepared(res), std::logic_error);

  // A clean prepare restores service.
  solver.prepare(good, res.size());
  const auto rates = solver.solve_prepared(res);
  for (const double r : rates) EXPECT_NEAR(r, 2.0, 1e-9);
}

TEST(FairShareSolver, ReuseAfterInvalidInputStillSolves) {
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{10.0}};
  std::vector<FairShareFlow> bad(1);
  bad[0].resources = {5};  // out of range
  EXPECT_THROW(solver.solve(res, bad), std::out_of_range);

  std::vector<FairShareFlow> good(2);
  good[0].resources = {0};
  good[1].resources = {0};
  const auto rates = solver.solve(res, good);
  EXPECT_NEAR(rates[0], 5.0, 1e-9);
  EXPECT_NEAR(rates[1], 5.0, 1e-9);
}

TEST(FairShareSolver, ResultSpanInvalidatedByNextSolveByCopy) {
  // The returned span aliases solver storage; callers that need the values
  // across solves must copy. Verify a copy taken before the next solve
  // stays intact (i.e. the documented usage pattern works).
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{30.0}};
  std::vector<FairShareFlow> three(3);
  for (auto& f : three) f.resources = {0};
  const auto first = solver.solve(res, three);
  const std::vector<double> copy(first.begin(), first.end());
  std::vector<FairShareFlow> one(1);
  one[0].resources = {0};
  solver.solve(res, one);
  for (const double r : copy) EXPECT_NEAR(r, 10.0, 1e-9);
}

// ------------------------- property-based sweep ---------------------------

struct RandomCase {
  int resources;
  int flows;
  std::uint64_t seed;
};

class FairShareProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(FairShareProperty, InvariantsHold) {
  const auto param = GetParam();
  sim::Rng rng(param.seed);
  std::vector<FairShareResource> res(
      static_cast<std::size_t>(param.resources));
  for (auto& r : res) r.capacity = rng.uniform(10.0, 1000.0);

  std::vector<FairShareFlow> flows(static_cast<std::size_t>(param.flows));
  for (auto& f : flows) {
    const int uses = static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < uses; ++u)
      f.resources.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, param.resources - 1)));
    f.weight = rng.uniform(0.5, 4.0);
    if (rng.chance(0.3)) f.cap = rng.uniform(5.0, 500.0);
  }

  const auto rates = max_min_fair_rates(res, flows);

  // A solver instance reused across all the parameterized topologies must
  // agree exactly with the one-shot path.
  static FairShareSolver reused;
  const auto reused_rates = reused.solve(res, flows);
  ASSERT_EQ(reused_rates.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i)
    EXPECT_DOUBLE_EQ(reused_rates[i], rates[i]);

  // 1. No flow exceeds its cap.
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_LE(rates[i], flows[i].cap + 1e-6);

  // 2. No resource is over capacity.
  std::vector<double> usage(res.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i)
    for (const auto r : flows[i].resources) usage[r] += rates[i];
  for (std::size_t r = 0; r < res.size(); ++r)
    EXPECT_LE(usage[r], res[r].capacity + 1e-5);

  // 3. Work conservation: every flow is bottlenecked somewhere — either at
  // its cap or at a saturated resource.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (rates[i] >= flows[i].cap - 1e-6) continue;
    bool saturated = false;
    for (const auto r : flows[i].resources)
      if (usage[r] >= res[r].capacity - 1e-5) saturated = true;
    EXPECT_TRUE(saturated) << "flow " << i << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FairShareProperty,
    ::testing::Values(RandomCase{1, 2, 1}, RandomCase{2, 5, 2},
                      RandomCase{3, 10, 3}, RandomCase{5, 20, 4},
                      RandomCase{8, 40, 5}, RandomCase{4, 4, 6},
                      RandomCase{10, 80, 7}, RandomCase{6, 30, 8}));

// ------------------- differential test against the reference ----------------

/// How often the reference took its two rare exits, so the randomized
/// families below can show that they reach them.
struct ReferenceStats {
  std::size_t safety_freezes = 0;
  std::size_t unbounded_exits = 0;
};

/// The progressive-filling loop FairShareSolver replaced, kept verbatim
/// (prepare's baseline, then solve_prepared's loop, with the solver's
/// member names) as the reference the event-driven solver must match bit
/// for bit: every filling iteration scans every finite resource and every
/// active flow's resource list.
std::vector<double> reference_rates(
    std::span<const FairShareResource> resources,
    std::span<const FairShareFlow> flows, ReferenceStats& stats) {
  const std::size_t num_flows_ = flows.size();
  const std::size_t num_resources_ = resources.size();
  std::vector<double> weights_(num_flows_);
  std::vector<double> caps_(num_flows_);
  std::vector<std::size_t> res_index_;
  std::vector<std::size_t> res_offset_(num_flows_ + 1);
  std::vector<double> active_weight_base_(num_resources_, 0.0);
  res_offset_[0] = 0;
  for (std::size_t f = 0; f < num_flows_; ++f) {
    weights_[f] = flows[f].weight;
    caps_[f] = flows[f].cap;
    for (const std::size_t r : flows[f].resources) {
      res_index_.push_back(r);
      active_weight_base_[r] += flows[f].weight;
    }
    res_offset_[f + 1] = res_index_.size();
  }
  std::vector<std::size_t> active_init_;
  for (std::size_t f = 0; f < num_flows_; ++f) {
    if (caps_[f] <= 0.0) {
      for (std::size_t k = res_offset_[f]; k < res_offset_[f + 1]; ++k)
        active_weight_base_[res_index_[k]] -= weights_[f];
    } else {
      active_init_.push_back(f);
    }
  }
  std::vector<std::uint64_t> saturated_at_(num_resources_, 0);
  std::uint64_t epoch_ = 0;

  std::vector<double> rates_(num_flows_, 0.0);
  std::vector<double> remaining_(num_resources_);
  std::vector<std::size_t> finite_res_;
  for (std::size_t r = 0; r < num_resources_; ++r) {
    remaining_[r] = resources[r].capacity > 0
                        ? resources[r].capacity
                        : std::numeric_limits<double>::infinity();
    if (std::isfinite(remaining_[r])) finite_res_.push_back(r);
  }
  std::vector<double> active_weight_(active_weight_base_);
  std::vector<std::size_t> active_(active_init_);

  constexpr double kEps = 1e-9;
  while (!active_.empty()) {
    // Pass 1+2: largest uniform per-weight increment before a resource
    // saturates or a flow reaches its cap.
    double step = std::numeric_limits<double>::infinity();
    for (const std::size_t r : finite_res_) {
      if (active_weight_[r] > kEps)
        step = std::min(step, remaining_[r] / active_weight_[r]);
    }
    for (const std::size_t f : active_) {
      if (std::isfinite(caps_[f]))
        step = std::min(step, (caps_[f] - rates_[f]) / weights_[f]);
    }
    if (!std::isfinite(step)) {
      for (const std::size_t f : active_)
        rates_[f] = std::numeric_limits<double>::infinity();
      ++stats.unbounded_exits;
      break;
    }
    step = std::max(step, 0.0);

    // Pass 3: drain resources and stamp the ones this step saturated.
    ++epoch_;
    for (const std::size_t r : finite_res_) {
      remaining_[r] -= step * active_weight_[r];
      if (remaining_[r] <= kEps && active_weight_[r] > kEps)
        saturated_at_[r] = epoch_;
    }

    // Pass 4: advance every active flow, freeze those at saturated
    // resources or at their caps, compacting the active list in place.
    std::size_t kept = 0;
    for (const std::size_t f : active_) {
      rates_[f] += step * weights_[f];
      bool freeze = rates_[f] >= caps_[f] - kEps;
      if (!freeze)
        for (std::size_t k = res_offset_[f]; k < res_offset_[f + 1]; ++k)
          if (saturated_at_[res_index_[k]] == epoch_) {
            freeze = true;
            break;
          }
      if (freeze) {
        for (std::size_t k = res_offset_[f]; k < res_offset_[f + 1]; ++k)
          active_weight_[res_index_[k]] -= weights_[f];
      } else {
        active_[kept++] = f;
      }
    }
    if (kept < active_.size()) {
      active_.resize(kept);
      continue;
    }
    // Numerical safety: freeze the lowest-indexed active flow.
    ++stats.safety_freezes;
    const std::size_t best = active_.front();
    for (std::size_t k = res_offset_[best]; k < res_offset_[best + 1]; ++k)
      active_weight_[res_index_[k]] -= weights_[best];
    active_.erase(active_.begin());
  }
  return rates_;
}

/// Byte equality, so a differing NaN payload or zero sign also fails.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Compares one instance against the reference, fresh and on a reused
/// solver; returns false (after one gtest failure) on a mismatch.
bool matches_reference(FairShareSolver& reused,
                       const std::vector<FairShareResource>& res,
                       const std::vector<FairShareFlow>& flows,
                       ReferenceStats& stats, const char* family,
                       int instance) {
  const std::vector<double> want = reference_rates(res, flows, stats);
  const std::vector<double> fresh = max_min_fair_rates(res, flows);
  const auto from_reused = reused.solve(res, flows);
  const bool same = same_bits(fresh, want) && same_bits(from_reused, want);
  EXPECT_TRUE(same) << family << " instance " << instance << " ("
                    << flows.size() << " flows, " << res.size()
                    << " resources) differs from the reference";
  return same;
}

double log_uniform(sim::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

double random_cap(sim::Rng& rng, double lo, double hi) {
  const double u = rng.uniform();
  if (u < 0.10) return 0.0;
  if (u < 0.15) return -rng.uniform(1.0, 10.0);
  if (u < 0.45) return std::numeric_limits<double>::infinity();
  return log_uniform(rng, lo, hi);
}

TEST(FairShareDifferential, IrregularInstancesMatchReference) {
  // Non-integer weights, repeated resource indices, zero/negative/infinite
  // caps, unconstrained (capacity <= 0) and infinite-capacity resources,
  // flows with no resources at all.
  sim::Rng rng(0x5eed0001);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 4000; ++i) {
    std::vector<FairShareResource> res(
        static_cast<std::size_t>(rng.uniform_int(1, 12)));
    for (auto& r : res) {
      const double u = rng.uniform();
      r.capacity = u < 0.05   ? 0.0
                   : u < 0.15 ? -rng.uniform(0.5, 5.0)
                   : u < 0.2  ? std::numeric_limits<double>::infinity()
                              : log_uniform(rng, 1.0, 1e10);
    }
    std::vector<FairShareFlow> flows(
        static_cast<std::size_t>(rng.uniform_int(1, 30)));
    for (auto& f : flows) {
      const auto uses = rng.uniform_int(0, 4);
      for (std::int64_t u = 0; u < uses; ++u)
        f.resources.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(res.size()) - 1)));
      f.weight = log_uniform(rng, 0.01, 100.0);
      f.cap = random_cap(rng, 0.5, 1e10);
    }
    if (!matches_reference(reused, res, flows, stats, "irregular", i)) break;
  }
  EXPECT_GT(stats.unbounded_exits, 0u);
  EXPECT_GT(stats.safety_freezes, 0u);
}

TEST(FairShareDifferential, TiedInstancesMatchReference) {
  // Small integer weights, capacities and caps: many flows reach their
  // caps or saturate a resource in the same step, so several classes,
  // caps and resources freeze together.
  sim::Rng rng(0x5eed0002);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 4000; ++i) {
    std::vector<FairShareResource> res(
        static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (auto& r : res)
      r.capacity = static_cast<double>(6 * rng.uniform_int(0, 10));
    std::vector<FairShareFlow> flows(
        static_cast<std::size_t>(rng.uniform_int(2, 24)));
    for (auto& f : flows) {
      const auto uses = rng.uniform_int(1, 3);
      for (std::int64_t u = 0; u < uses; ++u)
        f.resources.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(res.size()) - 1)));
      f.weight = static_cast<double>(rng.uniform_int(1, 3));
      f.cap = rng.chance(0.4) ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(rng.uniform_int(0, 12));
    }
    if (!matches_reference(reused, res, flows, stats, "tied", i)) break;
  }
  EXPECT_GT(stats.unbounded_exits, 0u);
}

TEST(FairShareDifferential, CoincidentFreezesMatchReference) {
  // Non-integer weights with caps at small multiples of the weight: many
  // flows of different weights reach their caps in the same step, so the
  // rounding of the shared resources' remaining weight depends on the
  // order their weights are subtracted in.
  sim::Rng rng(0x5eed0005);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 3000; ++i) {
    std::vector<FairShareResource> res(
        static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (auto& r : res) r.capacity = log_uniform(rng, 10.0, 1e4);
    std::vector<FairShareFlow> flows(
        static_cast<std::size_t>(rng.uniform_int(3, 24)));
    for (auto& f : flows) {
      const auto uses = rng.uniform_int(1, 3);
      for (std::int64_t u = 0; u < uses; ++u)
        f.resources.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(res.size()) - 1)));
      f.weight = rng.uniform(0.1, 3.0);
      f.cap = f.weight * static_cast<double>(rng.uniform_int(1, 3));
    }
    if (!matches_reference(reused, res, flows, stats, "coincident", i))
      break;
  }
}

TEST(FairShareDifferential, ZeroCapFlowsCanSplitTwins) {
  // Resources 0 and 1 carry the same active flows at equal capacity, but a
  // zero-cap flow crosses resource 1 only. Its weight is added into
  // resource 1's base in index order and subtracted afterwards, leaving
  // 0.4000000000000001 against resource 0's 0.4, so resource 1 binds
  // first. Treating the two as interchangeable would let resource 0 bind.
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0, 1};
  flows[0].weight = 0.1;
  flows[1].resources = {1};
  flows[1].weight = 0.2;
  flows[1].cap = 0.0;
  flows[2].resources = {0, 1};
  flows[2].weight = 0.3;
  const std::vector<FairShareResource> res = {{1.0}, {1.0}};
  ReferenceStats stats;
  const std::vector<double> want = reference_rates(res, flows, stats);
  const std::vector<FairShareResource> only_first = {{1.0}, {0.0}};
  ASSERT_FALSE(same_bits(want, reference_rates(only_first, flows, stats)))
      << "the instance no longer tells the two resources apart";
  FairShareSolver solver;
  EXPECT_TRUE(same_bits(solver.solve(res, flows), want));
}

TEST(FairShareDifferential, ResidualWeightOfZeroCapFlowsStillBinds) {
  // Resource 0 is crossed only by zero-cap flows, whose weights are added
  // and then subtracted back out: 3e8+0.7 and 0.1 leave ~2.4e-8, above the
  // filling epsilon. The reference lets that residue bind (no flow
  // freezes there, so the numerical-safety rule freezes flow 2 early);
  // the solver must too.
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0};
  flows[0].weight = 3e8 + 0.7;
  flows[0].cap = 0.0;
  flows[1].resources = {0};
  flows[1].weight = 0.1;
  flows[1].cap = 0.0;
  flows[2].resources = {1};
  const std::vector<FairShareResource> res = {{1e-9}, {100.0}};
  ReferenceStats stats;
  const std::vector<double> want = reference_rates(res, flows, stats);
  ASSERT_EQ(stats.safety_freezes, 1u);
  ASSERT_LT(want[2], 1.0);
  FairShareSolver solver;
  EXPECT_TRUE(same_bits(solver.solve(res, flows), want));
}

/// A slot's flow set (core::SlotRunner's shape): three shared measurer
/// NICs (resources 0-2), then per target a NIC and a relay resource. Each
/// target is measured by p of the measurers, each flow weighted 160/p and
/// capped near 2.25 z times a path factor. A target's NIC and relay are
/// crossed by the same flows; the NIC is usually far wider, but sometimes
/// the tighter of the two or equal to the relay.
struct SlotInstance {
  std::vector<FairShareResource> res;
  std::vector<FairShareFlow> flows;
  std::vector<double> relay_z;  // per target: its capacity estimate z
};

SlotInstance random_slot(sim::Rng& rng, int max_targets) {
  SlotInstance slot;
  const auto targets = static_cast<std::size_t>(
      rng.uniform_int(1, max_targets));
  slot.res.resize(3 + 2 * targets);
  for (std::size_t m = 0; m < 3; ++m)
    slot.res[m].capacity = rng.uniform(0.8e9, 1.0e9);
  for (std::size_t t = 0; t < targets; ++t) {
    const double z = std::exp(rng.uniform(std::log(0.25e6), std::log(998e6)));
    slot.relay_z.push_back(z);
    const double relay = rng.chance(0.1) ? 0.0 : z * rng.uniform(0.7, 1.3);
    const double u = rng.uniform();
    slot.res[3 + 2 * t].capacity = u < 0.15   ? z * rng.uniform(0.5, 1.2)
                                   : u < 0.25 ? relay
                                              : 954e6;
    slot.res[4 + 2 * t].capacity = relay;
    const auto participants = rng.uniform_int(1, 3);
    const auto first = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < participants; ++i) {
      FairShareFlow f;
      f.resources = {static_cast<std::size_t>((first + i) % 3), 3 + 2 * t,
                     4 + 2 * t};
      f.weight = 160.0 / static_cast<double>(participants);
      f.cap = 2.25 * z * rng.uniform(0.4, 1.0) /
              static_cast<double>(participants);
      slot.flows.push_back(std::move(f));
    }
  }
  return slot;
}

TEST(FairShareDifferential, SlotShapedInstancesMatchReference) {
  sim::Rng rng(0x5eed0003);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 600; ++i) {
    const SlotInstance slot = random_slot(rng, 60);
    if (!matches_reference(reused, slot.res, slot.flows, stats, "slot", i))
      break;
  }
  EXPECT_GT(stats.safety_freezes, 0u);
}

TEST(FairShareDifferential, PreparedReSolvesMatchReference) {
  // The per-second pattern: one prepare, then re-solves while the relay
  // capacities move (and sometimes drop to zero), including after the
  // flow set loses members (a crashed measurer's flows re-prepared at
  // cap 0).
  sim::Rng rng(0x5eed0004);
  FairShareSolver solver;
  ReferenceStats stats;
  bool ok = true;
  for (int i = 0; i < 60 && ok; ++i) {
    SlotInstance slot = random_slot(rng, 120);
    for (int segment = 0; segment < 2 && ok; ++segment) {
      if (segment == 1) {
        const auto crashed = rng.uniform_int(0, 2);
        for (auto& f : slot.flows)
          if (f.resources[0] == static_cast<std::size_t>(crashed))
            f.cap = 0.0;
      }
      solver.prepare(slot.flows, slot.res.size());
      for (int second = 0; second < 15 && ok; ++second) {
        for (std::size_t t = 0; t < slot.relay_z.size(); ++t)
          slot.res[4 + 2 * t].capacity =
              rng.chance(0.05) ? 0.0
                               : slot.relay_z[t] * rng.uniform(0.7, 1.3);
        const std::vector<double> want =
            reference_rates(slot.res, slot.flows, stats);
        ok = same_bits(solver.solve_prepared(slot.res), want);
        EXPECT_TRUE(ok) << "slot " << i << " segment " << segment
                        << " second " << second;
      }
    }
  }
  EXPECT_GT(stats.safety_freezes, 0u);
}

}  // namespace
}  // namespace flashflow::net
