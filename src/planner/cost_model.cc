#include "planner/cost_model.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dphist::planner {
namespace {

/// What costing needs beyond the release gate, which the oracle applies.
Status ValidateForCosting(const SnapshotOptions& config,
                          const WorkloadProfile& profile,
                          std::int64_t domain_size) {
  if (config.strategy == StrategyKind::kAuto) {
    return Status::InvalidArgument(
        "kAuto is a request to plan, not a configuration to cost");
  }
  if (profile.domain_size() != domain_size) {
    return Status::InvalidArgument("profile domain does not match");
  }
  if (profile.empty()) {
    return Status::InvalidArgument("cannot cost an empty workload profile");
  }
  return Status::Ok();
}

/// Builds the candidate's oracle over the linear protocol (the closed
/// forms' precondition; rounding/pruning only ever shrink error, so the
/// linear cost ranks configurations as a monotone proxy either way).
/// Fails on anything CheckReleaseOptions refuses.
Result<VarianceOracle> MakeOracle(const SnapshotOptions& config,
                                  std::int64_t domain_size) {
  SnapshotOptions linear = config;
  linear.round_to_nonnegative_integers = false;
  linear.prune_nonpositive_subtrees = false;
  return VarianceOracle::Create(linear, domain_size);
}

std::int64_t PlacementCount(std::int64_t domain_size, std::int64_t length) {
  const std::int64_t max_lo = domain_size - length;
  return std::min(CostModel::kPlacementsPerLength, max_lo + 1);
}

/// Evenly spaced placements, always including both extremes when more
/// than one fits; deterministic so plans are reproducible.
std::int64_t PlacementLo(std::int64_t domain_size, std::int64_t length,
                         std::int64_t placements, std::int64_t p) {
  const std::int64_t max_lo = domain_size - length;
  return placements == 1 ? 0 : (p * max_lo) / (placements - 1);
}

/// The per-placement variances of one query length, in grid order — the
/// only part of an evaluation that touches the oracle, and a pure
/// function of (configuration, length): profile weights never enter,
/// which is what makes the memo exact.
std::vector<double> PlacementVariances(const VarianceOracle& oracle,
                                       std::int64_t length) {
  const std::int64_t domain_size = oracle.domain_size();
  const std::int64_t placements = PlacementCount(domain_size, length);
  std::vector<double> variances;
  variances.reserve(static_cast<std::size_t>(placements));
  for (std::int64_t p = 0; p < placements; ++p) {
    const std::int64_t lo = PlacementLo(domain_size, length, placements, p);
    variances.push_back(oracle.RangeVariance(Interval(lo, lo + length - 1)));
  }
  return variances;
}

/// One length's placement mean, summed in grid order; also folds into
/// the running worst case.
double FoldLength(const std::vector<double>& variances, double* worst) {
  double sum = 0.0;
  for (const double variance : variances) {
    sum += variance;
    *worst = std::max(*worst, variance);
  }
  return sum / static_cast<double>(variances.size());
}

}  // namespace

CostModel::CostModel(std::int64_t domain_size) : domain_size_(domain_size) {
  DPHIST_CHECK_MSG(domain_size_ >= 1, "domain must be non-empty");
}

Result<QueryCost> CostModel::Evaluate(const SnapshotOptions& config,
                                      const WorkloadProfile& profile) {
  return Evaluate(config, profile, profile.length_weights());
}

Result<QueryCost> CostModel::Evaluate(
    const SnapshotOptions& config, const WorkloadProfile& profile,
    const std::map<std::int64_t, double>& lengths) {
  Status valid = ValidateForCosting(config, profile, domain_size_);
  if (!valid.ok()) return valid;

  const CandidateKey key{config.strategy, config.shards, config.branching,
                         config.epsilon};
  auto candidate = candidates_.find(key);
  if (candidate == candidates_.end()) {
    // The oracle gates the config before its key enters the memo.
    Result<VarianceOracle> oracle = MakeOracle(config, domain_size_);
    if (!oracle.ok()) return oracle.status();
    CandidateEntry entry;
    entry.oracle =
        std::make_unique<VarianceOracle>(std::move(oracle).value());
    candidate = candidates_.emplace(key, std::move(entry)).first;
  }
  CandidateEntry& entry = candidate->second;

  QueryCost cost;
  double weighted_sum = 0.0;
  for (const auto& [length, weight] : lengths) {
    auto it = entry.lengths.find(length);
    if (it != entry.lengths.end()) {
      stats_.lengths_reused += 1;
    } else {
      it = entry.lengths
               .emplace(length, PlacementVariances(*entry.oracle, length))
               .first;
      stats_.lengths_costed += 1;
    }
    weighted_sum += weight * FoldLength(it->second, &cost.worst_variance);
  }
  cost.mean_variance = weighted_sum / profile.total_weight();
  return cost;
}

}  // namespace dphist::planner
