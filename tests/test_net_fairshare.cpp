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
  /// remaining / weight quotients the reference computed: one per finite
  /// resource with active weight above eps per filling iteration.
  std::size_t divisions = 0;
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
      if (active_weight_[r] > kEps) {
        ++stats.divisions;
        step = std::min(step, remaining_[r] / active_weight_[r]);
      }
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

SlotInstance random_slot(sim::Rng& rng, int min_targets, int max_targets) {
  SlotInstance slot;
  const auto targets = static_cast<std::size_t>(
      rng.uniform_int(min_targets, max_targets));
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
    const SlotInstance slot = random_slot(rng, 1, 60);
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
    SlotInstance slot = random_slot(rng, 1, 120);
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

// ------------- above the cutoff: the saturation index ----------------------

/// Every family below solves instances with FairShareSolver::kIndexCutoff or
/// more live resources. A scanned step divides every live resource, so a
/// solver that averages at most `per_step` exact quotients per filling
/// step over a family of such solves found its steps through the heap
/// window.
///
/// The index's drain has an AVX2 clone and a baseline x86-64 one, and the
/// CPU picks between them at load time. GitHub's x86-64 runners have AVX2,
/// so every CI job runs the AVX2 clone, except the TSan job, whose build
/// has a single drain (baseline x86-64); the determinism job's
/// -march=x86-64-v3 build compiles both clones for AVX2 and FMA, which
/// -ffp-contract=off keeps from fusing. Only a CPU without AVX2 runs the
/// two-lane clone.
void expect_indexed(FairShareSolver& solver, double per_step) {
  const FairShareCounters work = solver.take_counters();
  ASSERT_GT(work.fill_steps, 0u);
  EXPECT_LE(static_cast<double>(work.exact_quotients),
            per_step * static_cast<double>(work.fill_steps));
}

TEST(FairShareDifferential, CrowdedSlotsMatchReference) {
  // The §7 crowded slot: 300-600 targets, hundreds of live relays.
  sim::Rng rng(0x5eed0006);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 24; ++i) {
    const SlotInstance slot = random_slot(rng, 300, 600);
    if (!matches_reference(reused, slot.res, slot.flows, stats, "crowded",
                           i))
      break;
  }
  expect_indexed(reused, 2.0);
}

TEST(FairShareDifferential, NearTiedRelaysMatchReference) {
  // Relays in pairs of equal weight (the same number of measurers), so
  // both drain by the same amounts. The second relay's capacity equals the
  // first's, is one ulp above or below it, or sits 1e-9 plus a few ulps
  // above it, so that when the first saturates the second's remaining
  // lands on the 1e-9 saturation threshold. Both must freeze in the same
  // iteration exactly when the reference's test says so, whatever the
  // keys' drift. Half the instances use capacities of a few bits, where
  // eps / weight rather than the drift decides the window. In half the
  // pairs one flow of each relay reaches the same cap first, lowering
  // both relays' weights in the same iteration.
  sim::Rng rng(0x5eed0007);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 200; ++i) {
    const bool tiny = rng.chance(0.5);
    const auto pairs = static_cast<std::size_t>(rng.uniform_int(25, 80));
    const std::size_t targets = 2 * pairs;
    std::vector<FairShareResource> res(3 + 2 * targets);
    for (std::size_t m = 0; m < 3; ++m)
      res[m].capacity = tiny ? rng.uniform(0.8e5, 1.0e5)
                             : rng.uniform(0.8e9, 1.0e9);
    std::vector<FairShareFlow> flows;
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      const std::size_t a = 2 * pair;
      const double first = tiny ? log_uniform(rng, 1.0, 1e3)
                                : log_uniform(rng, 0.25e6, 20e6);
      const double ulp = std::nextafter(first, 1e300) - first;
      double second = first;
      switch (rng.uniform_int(0, 3)) {
        case 0: break;
        case 1: second = std::nextafter(first, 1e300); break;
        case 2: second = std::nextafter(first, 0.0); break;
        default:
          second = first + 1e-9 +
                   static_cast<double>(rng.uniform_int(-4, 4)) * ulp;
      }
      res[4 + 2 * a].capacity = first;
      res[6 + 2 * a].capacity = second;
      res[3 + 2 * a].capacity = res[5 + 2 * a].capacity = tiny ? 954e2 : 954e6;
      const auto participants = rng.uniform_int(1, 3);
      const double weight = 160.0 / static_cast<double>(participants);
      const double cap =
          rng.chance(0.5) ? first * rng.uniform(0.2, 0.8) /
                                static_cast<double>(participants)
                          : std::numeric_limits<double>::infinity();
      for (std::size_t t = a; t < a + 2; ++t) {
        const auto measurer = rng.uniform_int(0, 2);
        for (std::int64_t m = 0; m < participants; ++m) {
          FairShareFlow f;
          f.resources = {static_cast<std::size_t>((measurer + m) % 3),
                         3 + 2 * t, 4 + 2 * t};
          f.weight = weight;
          if (m == 0) f.cap = cap;
          flows.push_back(std::move(f));
        }
      }
    }
    if (!matches_reference(reused, res, flows, stats, "near-tied", i)) break;
  }
  expect_indexed(reused, 3.0);
}

TEST(FairShareDifferential, WideWeightsAboveTheCutoffMatchReference) {
  // Non-integer weights from 1e-3 to 1e8 over kIndexCutoff + 1 to about
  // three times as many finite resources. Sums and differences of such
  // weights round: a resource whose flows have all frozen often keeps a
  // residue above eps, saturates without freezing anything and drives
  // numerical-safety freezes, and quotients spread over many orders of
  // magnitude. Each resource also carries a flow of its own, so no two are
  // twins.
  const auto cutoff = static_cast<std::int64_t>(FairShareSolver::kIndexCutoff);
  sim::Rng rng(0x5eed0008);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 150; ++i) {
    std::vector<FairShareResource> res(static_cast<std::size_t>(
        rng.uniform_int(cutoff + 1, 3 * cutoff + 32)));
    for (auto& r : res) r.capacity = log_uniform(rng, 1.0, 1e10);
    std::vector<FairShareFlow> flows(res.size() +
                                     static_cast<std::size_t>(rng.uniform_int(
                                         0, 2 * static_cast<std::int64_t>(
                                                    res.size()))));
    for (std::size_t k = 0; k < flows.size(); ++k) {
      FairShareFlow& f = flows[k];
      if (k < res.size()) {
        f.resources = {k};
      } else {
        const auto uses = rng.uniform_int(1, 3);
        for (std::int64_t u = 0; u < uses; ++u)
          f.resources.push_back(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(res.size()) - 1)));
      }
      f.weight = log_uniform(rng, 1e-3, 1e8);
      const double u = rng.uniform();
      f.cap = u < 0.5 ? std::numeric_limits<double>::infinity()
                      : log_uniform(rng, 0.5, 1e10);
      if (k >= res.size() && rng.chance(0.05)) f.cap = 0.0;
    }
    if (!matches_reference(reused, res, flows, stats, "wide-weights", i))
      break;
  }
  EXPECT_GT(stats.safety_freezes, 0u);
  // Without twins a scanned step divides exactly what the reference
  // divides, so fewer quotients mean some steps used the window.
  EXPECT_LT(reused.take_counters().exact_quotients, stats.divisions);
}

TEST(FairShareDifferential, ResidualWeightPaddedPastTheCutoffStillBinds) {
  // ResidualWeightOfZeroCapFlowsStillBinds with padding flows, each on a
  // resource of its own, so the solve starts above the cutoff. Resource 0
  // keeps a ~2.4e-8 residual weight after it saturates, stays live and
  // drives numerical-safety freezes; its quotient turns non-positive, which
  // sends those steps to the scan. The padding saturates around it: half
  // before, half after.
  const std::size_t padding = 2 * FairShareSolver::kIndexCutoff;
  std::vector<FairShareFlow> flows(3 + padding);
  flows[0].resources = {0};
  flows[0].weight = 3e8 + 0.7;
  flows[0].cap = 0.0;
  flows[1].resources = {0};
  flows[1].weight = 0.1;
  flows[1].cap = 0.0;
  flows[2].resources = {1};
  std::vector<FairShareResource> res = {{1e-9}, {100.0}};
  for (std::size_t j = 0; j < padding; ++j) {
    flows[3 + j].resources = {2 + j};
    res.push_back({j % 2 == 0 ? 1e-3 * static_cast<double>(j + 1)
                              : 50.0 + static_cast<double>(j)});
  }
  ReferenceStats stats;
  const std::vector<double> want = reference_rates(res, flows, stats);
  ASSERT_GT(stats.safety_freezes, 0u);
  FairShareSolver solver;
  EXPECT_TRUE(same_bits(solver.solve(res, flows), want));
  // No twins here, so a scanned step divides exactly what the reference
  // divides: fewer quotients means some steps used the window.
  EXPECT_LT(solver.take_counters().exact_quotients, stats.divisions);
}

TEST(FairShareDifferential, CrowdedPreparedReSolvesMatchReference) {
  // The per-second pattern above the cutoff: moving relay capacities, then
  // a measurer crash re-prepared with its flows at cap 0.
  sim::Rng rng(0x5eed0009);
  FairShareSolver solver;
  ReferenceStats stats;
  bool ok = true;
  for (int i = 0; i < 4 && ok; ++i) {
    SlotInstance slot = random_slot(rng, 300, 600);
    for (int segment = 0; segment < 2 && ok; ++segment) {
      if (segment == 1) {
        const auto crashed = rng.uniform_int(0, 2);
        for (auto& f : slot.flows)
          if (f.resources[0] == static_cast<std::size_t>(crashed))
            f.cap = 0.0;
      }
      solver.prepare(slot.flows, slot.res.size());
      for (int second = 0; second < 10 && ok; ++second) {
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
  expect_indexed(solver, 2.0);
}

// ------------- slack resources: out of the filling loop --------------------

// A resource whose capacity exceeds the caps of the flows crossing it by
// the solver's margin can never bind, and the solver leaves it out of the
// live set. Each family below pits that against the reference, which
// divides and drains every finite resource.

/// The sum of the caps of the flows crossing resource `r`, in flow order
/// (the order prepare() adds them in), or +inf.
double cap_sum(const std::vector<FairShareFlow>& flows, std::size_t r) {
  double sum = 0.0;
  for (const auto& f : flows)
    for (const std::size_t used : f.resources)
      if (used == r && f.cap > 0.0) sum += f.cap;
  return sum;
}

/// `x` moved by a random number of ulps in [lo, hi].
double ulps_away(sim::Rng& rng, double x, std::int64_t lo, std::int64_t hi) {
  for (auto k = rng.uniform_int(lo, hi); k != 0; k += k > 0 ? -1 : 1)
    x = std::nextafter(x, k > 0 ? 1e300 : 0.0);
  return x;
}

/// A capacity for a shared resource whose flows' caps sum to `sum`: far
/// above it (slack), within a few ulps or a millionth of it (within the
/// margin), just past the margin, below it (binding), unconstrained or
/// infinite.
double shared_capacity(sim::Rng& rng, double sum) {
  const double u = rng.uniform();
  if (u < 0.30) return sum * rng.uniform(1.01, 3.0);
  if (u < 0.40) return ulps_away(rng, sum, -2, 4);
  if (u < 0.50) return sum * (1.0 + rng.uniform(0.0, 1e-6));
  if (u < 0.60) return ulps_away(rng, sum * (1.0 + 1e-6) + 2e-9, -4, 4);
  if (u < 0.85) return sum * rng.uniform(0.2, 0.99);
  if (u < 0.90) return rng.chance(0.5) ? 0.0 : -1.0;
  return std::numeric_limits<double>::infinity();
}

/// random_slot's shape with the engine's weights: whole socket counts,
/// 160 / p in integer division, as core::make_shares splits them. A
/// few flows have no cap, and each measurer NIC's capacity is set from
/// the caps of its flows by shared_capacity().
SlotInstance whole_weight_slot(sim::Rng& rng, int min_targets,
                               int max_targets) {
  SlotInstance slot = random_slot(rng, min_targets, max_targets);
  for (auto& f : slot.flows) {
    const auto participants = static_cast<std::int64_t>(160.0 / f.weight +
                                                        0.5);
    f.weight = static_cast<double>(160 / participants);
    if (rng.chance(0.01)) f.cap = std::numeric_limits<double>::infinity();
  }
  for (std::size_t m = 0; m < 3; ++m)
    slot.res[m].capacity = shared_capacity(rng, cap_sum(slot.flows, m));
  return slot;
}

TEST(FairShareSlack, SharedResourcesMatchReference) {
  // Slot-shaped instances of 1 to 60 targets, so both the scan and the
  // index run, with measurer NICs slack, within the margin, just past it,
  // binding, unconstrained or infinite, and flows with +inf caps.
  sim::Rng rng(0x5eed000a);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 1500; ++i) {
    const SlotInstance slot = whole_weight_slot(rng, 1, 60);
    if (!matches_reference(reused, slot.res, slot.flows, stats, "slack", i))
      break;
  }
  EXPECT_GT(stats.safety_freezes, 0u);
}

TEST(FairShareSlack, CrowdedPreparedReSolvesMatchReference) {
  // The per-second pattern on crowded slots with the engine's weights:
  // relay capacities move and sometimes drop to zero, then a measurer
  // crash is re-prepared with its flows at cap 0, which lowers the other
  // resources' cap sums. With the NICs out, the relays alone keep these
  // solves above the cutoff.
  sim::Rng rng(0x5eed000b);
  FairShareSolver solver;
  ReferenceStats stats;
  bool ok = true;
  for (int i = 0; i < 6 && ok; ++i) {
    SlotInstance slot = whole_weight_slot(rng, 300, 600);
    for (int segment = 0; segment < 2 && ok; ++segment) {
      if (segment == 1) {
        const auto crashed = rng.uniform_int(0, 2);
        for (auto& f : slot.flows)
          if (f.resources[0] == static_cast<std::size_t>(crashed))
            f.cap = 0.0;
      }
      solver.prepare(slot.flows, slot.res.size());
      for (int second = 0; second < 8 && ok; ++second) {
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
  expect_indexed(solver, 2.0);
}

/// A twin-free instance: `n` flows of whole weights share resource 0 and
/// each also crosses a resource of its own, at or below its cap, so that
/// only resource 0 can be slack.
struct SharedInstance {
  std::vector<FairShareResource> res;
  std::vector<FairShareFlow> flows;
};

SharedInstance shared_instance(sim::Rng& rng, std::size_t n,
                               double max_private = 1.0) {
  SharedInstance in;
  in.res.resize(1 + n);
  for (std::size_t i = 0; i < n; ++i) {
    FairShareFlow f;
    f.resources = {0, 1 + i};
    f.weight = static_cast<double>(rng.uniform_int(1, 160));
    f.cap = log_uniform(rng, 1e5, 1e9);
    in.res[1 + i].capacity = f.cap * rng.uniform(0.5, max_private);
    in.flows.push_back(std::move(f));
  }
  return in;
}

TEST(FairShareSlack, SharedCapacityAtTheCapSumMatchesReference) {
  // Most flows reach their caps (their own resources are often wider, or
  // unconstrained), so a shared capacity a few ulps from the caps' sum
  // ends with a remaining of a few ulps: the drains' rounding decides
  // whether it sets the last step or saturates. Inside the margin it must
  // stay live.
  sim::Rng rng(0x5eed000d);
  FairShareSolver reused;
  ReferenceStats stats;
  for (int i = 0; i < 3000; ++i) {
    SharedInstance in = shared_instance(
        rng, static_cast<std::size_t>(rng.uniform_int(2, 80)), 4.0);
    if (i % 2 == 1)
      for (std::size_t r = 1; r < in.res.size(); ++r) in.res[r].capacity = 0;
    in.res[0].capacity = ulps_away(rng, cap_sum(in.flows, 0), -3, 6);
    if (!matches_reference(reused, in.res, in.flows, stats, "cap-sum", i))
      break;
  }
}

TEST(FairShareSlack, OnlyCapacityPastTheMarginLeavesTheLiveSet) {
  // Without twins a solve that divides fewer quotients than the reference
  // left a resource out. A shared capacity a ten-millionth above the caps'
  // sum is inside the margin and stays live; a hundred-thousandth above
  // is slack. Both solve exactly as the reference does, below the cutoff
  // and above it.
  sim::Rng rng(0x5eed000c);
  for (const std::size_t n :
       {std::size_t{5}, std::size_t{2} * FairShareSolver::kIndexCutoff}) {
    for (int i = 0; i < 50; ++i) {
      SharedInstance in = shared_instance(rng, n);
      const double sum = cap_sum(in.flows, 0);
      for (const double above : {1e-7, 1e-5}) {
        in.res[0].capacity = sum * (1.0 + above);
        ReferenceStats stats;
        const std::vector<double> want =
            reference_rates(in.res, in.flows, stats);
        FairShareSolver solver;
        ASSERT_TRUE(same_bits(solver.solve(in.res, in.flows), want))
            << n << " flows, instance " << i << ", " << above << " above";
        const std::uint64_t quotients = solver.take_counters().exact_quotients;
        if (n < FairShareSolver::kIndexCutoff) {
          if (above < 1e-6)
            EXPECT_EQ(quotients, stats.divisions) << "instance " << i;
          else
            EXPECT_LT(quotients, stats.divisions) << "instance " << i;
        }
      }
    }
  }
}

TEST(FairShareSlack, InexactWeightsKeepASlackResourceLive) {
  // Resource 0's capacity dwarfs its flows' caps, but their weights do not
  // add exactly: 3e8 + 0.7 and 0.1 (not whole), or 2^53 - 1 and 4 (whole,
  // but their sum rounds up to 2^53 + 4). Once both flows froze, the weight left is a
  // residue above eps, so the reference still divides by it, and the
  // quotient is the only finite candidate: flow 2, crossing nothing
  // constrained, gets a finite rate instead of +inf. Pruning resource 0
  // would give +inf.
  for (const auto& [a, b] : {std::pair(3e8 + 0.7, 0.1),
                             std::pair(0x1p53 - 1.0, 4.0)}) {
    std::vector<FairShareFlow> flows(3);
    flows[0].resources = {0};
    flows[0].weight = a;
    flows[0].cap = 1.0;
    flows[1].resources = {0};
    flows[1].weight = b;
    flows[1].cap = 1.0;
    flows[2].resources = {1};
    const std::vector<FairShareResource> res = {{1e12}, {0.0}};
    ReferenceStats stats;
    const std::vector<double> want = reference_rates(res, flows, stats);
    ASSERT_TRUE(std::isfinite(want[2])) << "weights " << a << ", " << b;
    FairShareSolver solver;
    EXPECT_TRUE(same_bits(solver.solve(res, flows), want))
        << "weights " << a << ", " << b;
  }
}

}  // namespace
}  // namespace flashflow::net
