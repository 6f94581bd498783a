// Cost-based strategy/shard planning for published DP releases.
//
// The planner enumerates candidate (StrategyKind, shard_count)
// configurations, costs each against a WorkloadProfile with the
// closed-form CostModel, and returns the plan with the least mean
// per-query variance (the worst case is reported beside it). This
// is the paper's Section 4 variance analysis acting as a query
// optimizer: unit-count traffic selects L~ (2/eps^2 beats any tree),
// long-range traffic selects a constrained hierarchy (O(log^3 n / eps^2)
// beats the linear-in-|q| identity strategy), and the shard count moves
// the crossover by trading tree depth against the number of independent
// noise terms a spanning query sums. H~ is not a default candidate:
// H-bar's variance is at most H~'s for every range at the same shard
// count (Theorem 4(ii)), so H~ could never be chosen.
//
// Plans are deterministic: candidates are evaluated in a fixed order and
// ties break toward the earlier strategy and the fewer shards.

#ifndef DPHIST_PLANNER_PLANNER_H_
#define DPHIST_PLANNER_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/cost_model.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"

namespace dphist::planner {

/// Knobs for the candidate enumeration.
struct PlannerOptions {
  /// Strategies to consider; empty means L~, H-bar and wavelet.
  std::vector<StrategyKind> strategies;
  /// Shard counts to consider; empty means powers of two
  /// 1, 2, 4, ..., up to min(max_shards, domain size).
  std::vector<std::int64_t> shard_counts;
  std::int64_t max_shards = 64;
};

/// One evaluated configuration.
struct Candidate {
  SnapshotOptions options;
  double mean_variance = 0.0;
  double worst_variance = 0.0;
};

/// The planner's decision plus the full evaluation table.
struct Plan {
  /// The chosen configuration, ready for Snapshot::Build. Inherits
  /// epsilon, branching, and the rounding/pruning protocol knobs from
  /// the base options passed to ChoosePlan.
  SnapshotOptions options;
  double predicted_mean_variance = 0.0;
  double predicted_worst_variance = 0.0;
  /// Every candidate, best first.
  std::vector<Candidate> candidates;
};

/// Enumerates candidates around `base` (its epsilon, branching, and
/// protocol knobs are kept; strategy and shards are replaced by each
/// candidate's) and returns the plan with the least mean variance for
/// `profile`. Fails on an empty profile, a kAuto candidate strategy, a
/// shard count below 1, or an empty shard ladder (max_shards < 1), and
/// on the first candidate the cost model refuses (an epsilon that is not
/// positive and finite or a branching < 2 in `base`, or a branching
/// whose trees would pass 2^31 nodes); that error is returned as is.
///
/// Candidates are costed through `model` when it is non-null, else
/// through a model local to the call. The runtime's replan loop passes
/// its long-lived model, so repeated plans over a drifting profile reuse
/// every (candidate, length) variance vector it has computed. The model
/// must have been built for the profile's domain (checked).
Result<Plan> ChoosePlan(const WorkloadProfile& profile,
                        const SnapshotOptions& base,
                        const PlannerOptions& planner_options = {},
                        CostModel* model = nullptr);

/// Resolves StrategyKind::kAuto: when `base.strategy == kAuto`, plans
/// against `profile` (through `model`, as ChoosePlan) and returns `base`
/// with the chosen strategy and shard count substituted; otherwise
/// returns `base` unchanged.
Result<SnapshotOptions> ResolveAutoStrategy(
    const SnapshotOptions& base, const WorkloadProfile& profile,
    const PlannerOptions& planner_options = {}, CostModel* model = nullptr);

/// Renders the plan as an aligned human-readable table (the `dphist
/// plan` output): one row per candidate plus the chosen configuration.
std::string FormatPlanTable(const Plan& plan, const WorkloadProfile& profile);

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_PLANNER_H_
