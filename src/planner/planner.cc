#include "planner/planner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace dphist::planner {
namespace {

constexpr StrategyKind kDefaultStrategies[] = {
    StrategyKind::kLTilde, StrategyKind::kHBar, StrategyKind::kWavelet};

/// Stable enumeration index of a strategy, for deterministic tie-breaks.
std::int64_t StrategyOrder(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLTilde:
      return 0;
    case StrategyKind::kHTilde:
      return 1;
    case StrategyKind::kHBar:
      return 2;
    case StrategyKind::kWavelet:
      return 3;
    case StrategyKind::kAuto:
      break;
  }
  DPHIST_CHECK_MSG(false, "unreachable: unknown StrategyKind");
  return -1;
}

std::vector<std::int64_t> DefaultShardCounts(std::int64_t domain_size,
                                             std::int64_t max_shards) {
  std::vector<std::int64_t> counts;
  const std::int64_t cap = std::min(max_shards, domain_size);
  for (std::int64_t s = 1; s <= cap; s *= 2) counts.push_back(s);
  return counts;
}

}  // namespace

Result<Plan> ChoosePlan(const WorkloadProfile& profile,
                        const SnapshotOptions& base,
                        const PlannerOptions& planner_options,
                        CostModel* model) {
  if (profile.empty()) {
    return Status::InvalidArgument("cannot plan for an empty workload");
  }
  if (model != nullptr && model->domain_size() != profile.domain_size()) {
    return Status::InvalidArgument(
        "cost model was built for a different domain");
  }
  std::vector<StrategyKind> strategies = planner_options.strategies;
  if (strategies.empty()) {
    strategies.assign(std::begin(kDefaultStrategies),
                      std::end(kDefaultStrategies));
  }
  for (StrategyKind kind : strategies) {
    if (kind == StrategyKind::kAuto) {
      return Status::InvalidArgument("kAuto cannot be a candidate strategy");
    }
  }
  std::vector<std::int64_t> shard_counts = planner_options.shard_counts;
  if (shard_counts.empty()) {
    shard_counts = DefaultShardCounts(profile.domain_size(),
                                      planner_options.max_shards);
  }
  if (shard_counts.empty()) {
    return Status::InvalidArgument("max_shards must be >= 1");
  }
  for (std::int64_t shards : shard_counts) {
    if (shards < 1) {
      return Status::InvalidArgument("shard counts must be >= 1");
    }
  }

  CostModel local(profile.domain_size());
  if (model == nullptr) model = &local;
  const std::map<std::int64_t, double> lengths = profile.length_weights();
  Plan plan;
  plan.candidates.reserve(strategies.size() * shard_counts.size());
  for (StrategyKind kind : strategies) {
    for (std::int64_t shards : shard_counts) {
      Candidate candidate;
      candidate.options = base;
      candidate.options.strategy = kind;
      candidate.options.shards = shards;
      Result<QueryCost> cost =
          model->Evaluate(candidate.options, profile, lengths);
      // One oracle costs every configuration at every width, so a
      // failure here is the shared base's (epsilon, or a branching too
      // small or too large for the domain), not a quirk of this
      // candidate's.
      if (!cost.ok()) return cost.status();
      candidate.mean_variance = cost.value().mean_variance;
      candidate.worst_variance = cost.value().worst_variance;
      plan.candidates.push_back(std::move(candidate));
    }
  }

  auto rank = [](const Candidate& c) {
    return std::make_tuple(c.mean_variance, StrategyOrder(c.options.strategy),
                           c.options.shards);
  };
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [&rank](const Candidate& a, const Candidate& b) {
                     return rank(a) < rank(b);
                   });
  const Candidate& best = plan.candidates.front();
  plan.options = best.options;
  plan.predicted_mean_variance = best.mean_variance;
  plan.predicted_worst_variance = best.worst_variance;
  return plan;
}

Result<SnapshotOptions> ResolveAutoStrategy(
    const SnapshotOptions& base, const WorkloadProfile& profile,
    const PlannerOptions& planner_options, CostModel* model) {
  if (base.strategy != StrategyKind::kAuto) return base;
  Result<Plan> plan = ChoosePlan(profile, base, planner_options, model);
  if (!plan.ok()) return plan.status();
  return plan.value().options;
}

std::string FormatPlanTable(const Plan& plan,
                            const WorkloadProfile& profile) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "# workload: %.6g queries over domain %lld (%zu distinct "
                "lengths)\n",
                profile.total_weight(),
                static_cast<long long>(profile.domain_size()),
                profile.length_weights().size());
  out += line;
  std::snprintf(line, sizeof(line), "%-8s %6s %14s %14s  %s\n", "strategy",
                "shards", "mean_var", "worst_var", "note");
  out += line;
  for (const Candidate& c : plan.candidates) {
    std::snprintf(line, sizeof(line), "%-8s %6lld %14.6g %14.6g\n",
                  StrategyKindName(c.options.strategy),
                  static_cast<long long>(c.options.shards), c.mean_variance,
                  c.worst_variance);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "plan: strategy=%s shards=%lld mean_var=%.6g "
                "worst_var=%.6g\n",
                StrategyKindName(plan.options.strategy),
                static_cast<long long>(plan.options.shards),
                plan.predicted_mean_variance, plan.predicted_worst_variance);
  out += line;
  return out;
}

}  // namespace dphist::planner
