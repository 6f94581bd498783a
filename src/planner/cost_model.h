// CostModel: expected per-query error of a (strategy, shards)
// configuration against a workload profile.
//
// For every configuration the serving layer can publish, the closed-form
// oracle (planner/variance_oracle.h) gives the exact per-query variance
// of the *linear* protocol. The cost model folds that over a
// WorkloadProfile: for each length the profile reports (one mean per
// length bucket) it averages the variance uniformly over a deterministic
// set of placements (variance depends on where a range falls relative
// to shard and subtree boundaries, not just on its length), then
// weights by how often the bucket occurs. The result is the expected
// squared error per query — the quantity the planner minimizes.
//
// Rounding/pruning (Section 5.2) are nonlinear and only ever reduce
// error, so configurations are ranked by their linear closed forms even
// when the published release will round: the ranking is used as a
// monotone proxy.
//
// H-bar and wavelet variances go through the Gram recurrence closed
// forms, exact and O(branching * log width) at every width, so every
// configuration CheckReleaseOptions accepts has a cost.
//
// A length's placement variances depend only on the configuration and
// the length, never on the profile's weights, so the model memoizes them
// per candidate and per length: re-costing a drifted profile runs the
// oracle only for lengths a candidate has never seen, and the fold over
// memoized numbers is the one a cold model runs, so a warm model's costs
// equal a cold one's bit for bit (pinned by cost_model_test). The memo
// never evicts and keeps every length it is given. It stays small
// because a profile holds one length per bucket (97 for a file of
// lengths 1..20,000), and a server's model only ever sees the 63
// traffic midpoints, one workload file's bucket means, one recovered
// profile's and the geometric sweep's.

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
  /// Profile-weighted mean per-query variance (what the planner
  /// minimizes).
  double mean_variance = 0.0;
  /// Largest per-query variance over every evaluated (length, placement),
  /// reported beside the mean in the plan table.
  double worst_variance = 0.0;
};

/// Evaluates configurations against profiles over one domain, memoizing
/// the oracle's work across calls.
///
/// Not thread-safe: the runtime's EpochManager serializes every plan and
/// drift check through its busy token and owns one instance across the
/// service's lifetime.
class CostModel {
 public:
  /// Placements sampled per query length (deterministic, evenly
  /// spaced); variance is averaged over them uniformly.
  static constexpr std::int64_t kPlacementsPerLength = 8;

  explicit CostModel(std::int64_t domain_size);

  /// Expected per-query variance of `config` under `profile`. Fails on
  /// kAuto (nothing to evaluate), a profile for a different domain, an
  /// empty profile, or a config CheckReleaseOptions refuses (epsilon not
  /// positive and finite, branching < 2, shards < 1, trees past 2^31
  /// nodes).
  Result<QueryCost> Evaluate(const SnapshotOptions& config,
                             const WorkloadProfile& profile);

  /// The same cost over `lengths`, which must be
  /// profile.length_weights(): a caller costing many candidates against
  /// one profile takes its lengths once.
  Result<QueryCost> Evaluate(const SnapshotOptions& config,
                             const WorkloadProfile& profile,
                             const std::map<std::int64_t, double>& lengths);

  struct Stats {
    std::uint64_t lengths_costed = 0;  // lengths that ran the oracle
    std::uint64_t lengths_reused = 0;  // lengths served from the memo
  };
  const Stats& stats() const { return stats_; }

  std::int64_t domain_size() const { return domain_size_; }

 private:
  /// (strategy, shards, branching, epsilon): all an oracle depends on.
  using CandidateKey =
      std::tuple<StrategyKind, std::int64_t, std::int64_t, double>;
  struct CandidateEntry {
    /// The candidate's oracle, kept alive so its lazily built per-width
    /// recurrence tables amortize across evaluations too.
    std::unique_ptr<VarianceOracle> oracle;
    /// Placement-grid variance vectors keyed by query length.
    std::map<std::int64_t, std::vector<double>> lengths;
  };

  std::int64_t domain_size_;
  std::map<CandidateKey, CandidateEntry> candidates_;
  Stats stats_;
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_COST_MODEL_H_
