// CostModel: expected per-query error of a (strategy, shards)
// configuration against a workload profile.
//
// For every configuration the serving layer can publish, the closed-form
// oracle (planner/variance_oracle.h) gives the exact per-query variance
// of the *linear* protocol. The cost model folds that over a
// WorkloadProfile: for each observed query length it averages the
// variance over a deterministic set of placements (variance depends on
// where a range falls relative to shard and subtree boundaries, not just
// on its length), then weights by how often the length occurs. When the
// profile carries position heat (reservoir-exported traffic), each
// placement is weighted by the observed traffic share at its midpoint —
// plus a uniform smoothing floor so cold regions keep a voice — instead
// of uniformly. The result is the expected squared error per query — the
// quantity the planner minimizes.
//
// Rounding/pruning (Section 5.2) are nonlinear and only ever reduce
// error, so configurations are ranked by their linear closed forms even
// when the published release will round: the ranking is used as a
// monotone proxy.
//
// H-bar and wavelet variances go through the Gram recurrence closed
// forms, exact and O(branching * log width) at every width, so every
// configuration with valid epsilon, branching and shards has a cost.

#ifndef DPHIST_PLANNER_COST_MODEL_H_
#define DPHIST_PLANNER_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "planner/variance_oracle.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"

namespace dphist::planner {

/// Workload-weighted error summary of one configuration.
struct QueryCost {
  /// Profile-weighted mean per-query variance (the planner's default
  /// objective).
  double mean_variance = 0.0;
  /// Largest per-query variance over every evaluated (length, placement)
  /// — a worst-case objective for latency-of-error-sensitive callers.
  double worst_variance = 0.0;
};

/// Evaluates configurations against profiles over one domain.
class CostModel {
 public:
  /// Placements sampled per query length (deterministic, evenly
  /// spaced); variance is averaged over them (heat-weighted when the
  /// profile knows where traffic lands).
  static constexpr std::int64_t kPlacementsPerLength = 8;

  explicit CostModel(std::int64_t domain_size);

  /// Expected per-query variance of `config` under `profile`. Fails on
  /// kAuto (nothing to evaluate), an empty profile, a profile for a
  /// different domain, or a config CheckReleaseOptions refuses
  /// (non-positive epsilon, branching < 2, shards < 1, trees past 2^31
  /// nodes).
  Result<QueryCost> Evaluate(const SnapshotOptions& config,
                             const WorkloadProfile& profile) const;

  std::int64_t domain_size() const { return domain_size_; }

 private:
  std::int64_t domain_size_;
};

/// Incremental, cached cost evaluation for repeated replan decisions.
///
/// The expensive part of CostModel::Evaluate is the per-(length,
/// placement) oracle call; crucially, that variance depends only on the
/// candidate configuration and the placement geometry — never on the
/// profile's weights or heat. IncrementalCostModel memoizes those
/// variance vectors per candidate (strategy, shards, branching, epsilon)
/// and per length, so re-costing a drifted profile is a pure
/// re-weighting fold over cached numbers: the oracle runs only for query
/// lengths a candidate has never seen. The fold is shared with
/// CostModel::Evaluate, so a cached re-cost equals a from-scratch
/// evaluation bit for bit (pinned by cost_model_test).
///
/// Not thread-safe: the runtime's EpochManager serializes every replan
/// and drift check through its busy token and owns one instance across
/// the service's lifetime.
class IncrementalCostModel {
 public:
  explicit IncrementalCostModel(std::int64_t domain_size);

  /// Same contract and same result as model().Evaluate(config, profile),
  /// served from the per-candidate memo where possible.
  Result<QueryCost> Evaluate(const SnapshotOptions& config,
                             const WorkloadProfile& profile);

  struct Stats {
    std::uint64_t evaluations = 0;    // Evaluate calls
    std::uint64_t lengths_costed = 0; // lengths that ran the oracle
    std::uint64_t lengths_reused = 0; // lengths served from the memo
    /// Profile generation: bumps whenever an Evaluate call sees a
    /// length-weight table different from the previous call's.
    std::uint64_t generation = 0;
  };
  const Stats& stats() const { return stats_; }

  const CostModel& model() const { return model_; }

 private:
  struct CandidateKey {
    StrategyKind strategy;
    std::int64_t shards;
    std::int64_t branching;
    double epsilon;
    bool operator<(const CandidateKey& other) const {
      return std::tie(strategy, shards, branching, epsilon) <
             std::tie(other.strategy, other.shards, other.branching,
                      other.epsilon);
    }
  };
  struct CandidateEntry {
    /// The candidate's oracle, kept alive so its lazily built per-width
    /// recurrence tables amortize across evaluations too.
    std::unique_ptr<VarianceOracle> oracle;
    /// Placement-grid variance vectors keyed by query length.
    std::map<std::int64_t, std::vector<double>> lengths;
  };

  CostModel model_;
  std::map<CandidateKey, CandidateEntry> candidates_;
  /// Last profile's length-weight table, for the generation counter.
  std::map<std::int64_t, double> last_weights_;
  bool seen_profile_ = false;
  Stats stats_;
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_COST_MODEL_H_
