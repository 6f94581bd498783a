// Planner decision tests plus the planner-vs-empirical conformance
// harness: the chosen plan's predicted mean squared error must match
// what the serving layer actually delivers (Monte-Carlo over thousands
// of releases, within the oracle's confidence bound), and must be no
// worse than every rejected candidate's prediction. The workloads are
// built on the cost model's own deterministic placement grid so the
// prediction is the exact expectation of the measured quantity — any
// systematic gap is a planner bug, not sampling slack.

#include "planner/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "planner/variance_oracle.h"
#include "service/query_service.h"
#include "tests/support/variance_oracle.h"

namespace dphist::planner {
namespace {

SnapshotOptions LinearBase(double epsilon = 1.0) {
  SnapshotOptions base;
  base.epsilon = epsilon;
  base.round_to_nonnegative_integers = false;
  base.prune_nonpositive_subtrees = false;
  return base;
}

/// The cost model's placement grid for one length (see CostModel::
/// Evaluate): evenly spaced los, extremes included. Building workloads
/// on this grid makes predicted mean variance the exact expectation of
/// the workload's empirical mean squared error.
std::vector<Interval> PlacementGrid(std::int64_t domain_size,
                                    std::int64_t length,
                                    std::int64_t placements_per_length) {
  const std::int64_t max_lo = domain_size - length;
  const std::int64_t placements =
      std::min(placements_per_length, max_lo + 1);
  std::vector<Interval> queries;
  for (std::int64_t p = 0; p < placements; ++p) {
    const std::int64_t lo =
        placements == 1 ? 0 : (p * max_lo) / (placements - 1);
    queries.emplace_back(lo, lo + length - 1);
  }
  return queries;
}

TEST(PlannerTest, UnitWorkloadSelectsLTilde) {
  WorkloadProfile units(64);
  units.AddLength(1, 100.0);
  auto plan = ChoosePlan(units, LinearBase());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 2/eps^2 per unit count: no tree can beat asking the count directly,
  // and sharding cannot change a strategy that is already per-position.
  EXPECT_EQ(plan.value().options.strategy, StrategyKind::kLTilde);
  EXPECT_EQ(plan.value().options.shards, 1);
  EXPECT_DOUBLE_EQ(plan.value().predicted_mean_variance, 2.0);
}

TEST(PlannerTest, LongRangeWorkloadSelectsAHierarchy) {
  WorkloadProfile longs(64);
  longs.AddLength(32);
  longs.AddLength(64);
  PlannerOptions options;
  options.strategies = {StrategyKind::kLTilde, StrategyKind::kHTilde,
                        StrategyKind::kHBar};
  auto plan = ChoosePlan(longs, LinearBase(), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().options.strategy, StrategyKind::kLTilde)
      << "long ranges must not be answered by summing unit counts";
}

TEST(PlannerTest, CandidatesAreSortedBestFirstAndChosenIsMinimal) {
  WorkloadProfile profile(64);
  profile.AddLength(1, 3.0);
  profile.AddLength(16);
  profile.AddLength(64);
  auto plan = ChoosePlan(profile, LinearBase());
  ASSERT_TRUE(plan.ok());
  const Plan& p = plan.value();
  ASSERT_FALSE(p.candidates.empty());
  EXPECT_EQ(p.candidates.front().options.strategy, p.options.strategy);
  EXPECT_EQ(p.candidates.front().options.shards, p.options.shards);
  double previous = -1.0;
  for (const Candidate& c : p.candidates) {
    EXPECT_GE(c.mean_variance, previous);
    EXPECT_GE(c.mean_variance, p.predicted_mean_variance - 1e-12);
    previous = c.mean_variance;
  }
}

TEST(PlannerTest, WorstCaseObjectiveChangesTheRanking) {
  WorkloadProfile profile(64);
  profile.AddLength(1, 1000.0);  // the mean is dominated by units...
  profile.AddLength(64);         // ...but the worst case by the full range
  PlannerOptions mean_objective;
  mean_objective.strategies = {StrategyKind::kLTilde, StrategyKind::kHBar};
  PlannerOptions worst_objective = mean_objective;
  worst_objective.minimize_worst_case = true;

  auto by_mean = ChoosePlan(profile, LinearBase(), mean_objective);
  auto by_worst = ChoosePlan(profile, LinearBase(), worst_objective);
  ASSERT_TRUE(by_mean.ok());
  ASSERT_TRUE(by_worst.ok());
  EXPECT_EQ(by_mean.value().options.strategy, StrategyKind::kLTilde);
  EXPECT_EQ(by_worst.value().options.strategy, StrategyKind::kHBar);
}

TEST(PlannerTest, UnshardedWideHBarPlans) {
  // The recurrence closed forms have no width cap: a lone unsharded
  // width-256 H-bar candidate is costed and chosen.
  WorkloadProfile profile(256);
  profile.AddLength(4);
  PlannerOptions options;
  options.strategies = {StrategyKind::kHBar};
  options.shard_counts = {1};
  EXPECT_TRUE(ChoosePlan(profile, LinearBase(), options).ok());
}

TEST(PlannerTest, EnumerationAndBaseErrorsAreReturnedAsIs) {
  WorkloadProfile profile(64);
  profile.AddLength(4);
  PlannerOptions no_shards;
  no_shards.max_shards = 0;  // empty default shard ladder
  EXPECT_FALSE(ChoosePlan(profile, LinearBase(), no_shards).ok());
  PlannerOptions zero_shards;
  zero_shards.shard_counts = {0};
  EXPECT_FALSE(ChoosePlan(profile, LinearBase(), zero_shards).ok());
  PlannerOptions auto_candidate;
  auto_candidate.strategies = {StrategyKind::kAuto};
  EXPECT_FALSE(ChoosePlan(profile, LinearBase(), auto_candidate).ok());

  // A base no candidate can be costed under fails with the cost model's
  // own error, not a per-candidate summary.
  auto plan = ChoosePlan(profile, LinearBase(/*epsilon=*/0.0));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.status().message(), "epsilon must be positive");

  // So does a branching whose trees no candidate could allocate: the
  // release gate refuses it before any oracle is built.
  SnapshotOptions absurd = LinearBase();
  absurd.branching = std::int64_t{1} << 40;
  plan = ChoosePlan(profile, absurd);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("branching 1099511627776"),
            std::string::npos)
      << plan.status().ToString();
}

TEST(PlannerTest, IncrementalCostCacheMatchesFreshEvaluation) {
  // ChoosePlan through a shared IncrementalCostModel must rank and cost
  // candidates identically to the cache-free path — including on a
  // heat-carrying profile — while reusing oracle work across calls.
  const std::int64_t n = 256;
  WorkloadProfile profile(n);
  for (std::int64_t lo : {0, 10, 110, 200}) {
    profile.AddQuery(Interval(lo, lo + 31));
  }
  profile.AddLength(1, 6.0);
  PlannerOptions options;
  options.max_shards = 8;

  IncrementalCostModel cache(n);
  auto fresh = ChoosePlan(profile, LinearBase(), options);
  auto cached = ChoosePlan(profile, LinearBase(), options, &cache);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(fresh.value().candidates.size(),
            cached.value().candidates.size());
  for (std::size_t i = 0; i < fresh.value().candidates.size(); ++i) {
    const Candidate& a = fresh.value().candidates[i];
    const Candidate& b = cached.value().candidates[i];
    EXPECT_EQ(a.options.strategy, b.options.strategy) << i;
    EXPECT_EQ(a.options.shards, b.options.shards) << i;
    EXPECT_EQ(a.mean_variance, b.mean_variance) << i;
    EXPECT_EQ(a.worst_variance, b.worst_variance) << i;
  }

  // A re-plan over a drifted profile re-runs the oracle only for the
  // brand-new length; everything else is a re-weighting fold.
  profile.AddQuery(Interval(40, 71));  // length already cached
  profile.AddLength(128);              // new length
  const auto before = cache.stats();
  auto replanned = ChoosePlan(profile, LinearBase(), options, &cache);
  ASSERT_TRUE(replanned.ok());
  const auto after = cache.stats();
  const std::uint64_t candidates =
      static_cast<std::uint64_t>(replanned.value().candidates.size());
  EXPECT_EQ(after.lengths_costed - before.lengths_costed, candidates);
  EXPECT_GT(after.lengths_reused, before.lengths_reused);

  // The cache refuses a profile over another domain instead of serving
  // stale geometry.
  WorkloadProfile other(128);
  other.AddLength(1);
  EXPECT_FALSE(ChoosePlan(other, LinearBase(), options, &cache).ok());
}

TEST(PlannerTest, ResolveAutoStrategySubstitutesOnlyForAuto) {
  WorkloadProfile units(64);
  units.AddLength(1);

  SnapshotOptions concrete = LinearBase();
  concrete.strategy = StrategyKind::kWavelet;
  concrete.shards = 4;
  auto unchanged = ResolveAutoStrategy(concrete, units);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value().strategy, StrategyKind::kWavelet);
  EXPECT_EQ(unchanged.value().shards, 4);

  SnapshotOptions auto_base = LinearBase();
  auto_base.strategy = StrategyKind::kAuto;
  auto resolved = ResolveAutoStrategy(auto_base, units);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().strategy, StrategyKind::kLTilde);
}

/// One Monte-Carlo conformance run: publishes the configuration kTrials
/// times and returns the workload-mean empirical squared error.
double EmpiricalMeanSquaredError(const Histogram& data,
                                 const SnapshotOptions& options,
                                 const std::vector<Interval>& workload,
                                 std::int64_t trials) {
  QueryService service;
  std::vector<double> truth(workload.size());
  for (std::size_t q = 0; q < workload.size(); ++q) {
    truth[q] = data.Count(workload[q]);
  }
  std::vector<double> answers(workload.size());
  double total = 0.0;
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    EXPECT_TRUE(service
                    .Publish(data, options,
                             /*seed=*/7000 + static_cast<std::uint64_t>(trial))
                    .ok());
    EXPECT_TRUE(
        service.TryQueryBatch(workload.data(), workload.size(), answers.data())
            .ok());
    for (std::size_t q = 0; q < workload.size(); ++q) {
      const double err = answers[q] - truth[q];
      total += err * err;
    }
  }
  return total / (static_cast<double>(trials) *
                  static_cast<double>(workload.size()));
}

TEST(PlannerConformanceTest, ChosenPlanDeliversItsPredictedError) {
  // 256 positions: large enough that the paper's crossover has happened
  // (a constrained hierarchy beats L~ on ranges of n/2 and n; at n = 64
  // the placement-averaged mean still favors L~).
  constexpr std::int64_t kDomain = 256;
  constexpr std::int64_t kTrials = 4000;
  const double tolerance =
      test_support::SquaredErrorRelativeBound(kTrials, 4.6);

  Rng data_rng(43);
  Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 5 * kDomain, &data_rng));

  PlannerOptions planner_options;
  planner_options.strategies = {StrategyKind::kLTilde, StrategyKind::kHTilde,
                                StrategyKind::kHBar};

  struct Scenario {
    const char* name;
    std::vector<std::int64_t> lengths;
    StrategyKind forbidden;  // the strategy the workload must NOT pick
  };
  const Scenario scenarios[] = {
      {"unit_counts", {1}, StrategyKind::kHBar},
      {"long_ranges", {kDomain / 2, kDomain}, StrategyKind::kLTilde},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    // Workload == the cost model's own placement grid, so the plan's
    // predicted mean variance is the exact expectation of the measured
    // mean squared error.
    WorkloadProfile profile(kDomain);
    std::vector<Interval> workload;
    for (std::int64_t length : scenario.lengths) {
      for (const Interval& q : PlacementGrid(
               kDomain, length, CostModel::kPlacementsPerLength)) {
        profile.AddQuery(q);
        workload.push_back(q);
      }
    }

    auto plan = ChoosePlan(profile, LinearBase(), planner_options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().options.strategy, scenario.forbidden);

    // The decision is optimal among the evaluated candidates...
    for (const Candidate& candidate : plan.value().candidates) {
      EXPECT_LE(plan.value().predicted_mean_variance,
                candidate.mean_variance + 1e-12)
          << StrategyKindName(candidate.options.strategy) << "/"
          << candidate.options.shards;
    }

    // ...and the prediction is real: Monte-Carlo lands on it.
    const double empirical = EmpiricalMeanSquaredError(
        data, plan.value().options, workload, kTrials);
    EXPECT_NEAR(empirical / plan.value().predicted_mean_variance, 1.0,
                tolerance)
        << "empirical " << empirical << " predicted "
        << plan.value().predicted_mean_variance;

    // The harness also rejects the alternative: the forbidden strategy's
    // best candidate must predict (and deliver) no better than the plan.
    double best_forbidden = -1.0;
    SnapshotOptions forbidden_options;
    for (const Candidate& candidate : plan.value().candidates) {
      if (candidate.options.strategy != scenario.forbidden) continue;
      if (best_forbidden < 0.0 ||
          candidate.mean_variance < best_forbidden) {
        best_forbidden = candidate.mean_variance;
        forbidden_options = candidate.options;
      }
    }
    ASSERT_GE(best_forbidden, 0.0);
    EXPECT_GE(best_forbidden,
              plan.value().predicted_mean_variance - 1e-12);
    const double empirical_forbidden = EmpiricalMeanSquaredError(
        data, forbidden_options, workload, kTrials);
    EXPECT_NEAR(empirical_forbidden / best_forbidden, 1.0, tolerance);
  }
}

}  // namespace
}  // namespace dphist::planner
