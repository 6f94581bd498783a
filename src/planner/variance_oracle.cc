#include "planner/variance_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "tree/range_decomposition.h"
#include "tree/tree_layout.h"

namespace dphist::planner {
namespace {

/// The release gate (CheckReleaseOptions) plus what only the closed
/// forms need: a resolved strategy and the linear protocol.
Status ValidateOracleConfig(const SnapshotOptions& options,
                            std::int64_t domain_size) {
  if (options.strategy == StrategyKind::kAuto) {
    return Status::InvalidArgument(
        "kAuto must be resolved by the planner before the closed form "
        "can be evaluated");
  }
  if (options.round_to_nonnegative_integers ||
      options.prune_nonpositive_subtrees) {
    return Status::InvalidArgument(
        "closed forms hold only for the linear protocol (rounding and "
        "pruning off)");
  }
  return CheckReleaseOptions(options, domain_size);
}

}  // namespace

Result<VarianceOracle> VarianceOracle::Create(
    const SnapshotOptions& options, std::int64_t domain_size) {
  Status valid = ValidateOracleConfig(options, domain_size);
  if (!valid.ok()) return valid;
  return VarianceOracle(options, domain_size,
                        ShardWidth(domain_size, options.shards));
}

VarianceOracle::VarianceOracle(const SnapshotOptions& options,
                               std::int64_t domain_size)
    : options_(options), domain_size_(domain_size) {
  Status valid = ValidateOracleConfig(options, domain_size);
  DPHIST_CHECK_MSG(valid.ok(), valid.message().c_str());
  shard_width_ = ShardWidth(domain_size_, options_.shards);
}

double VarianceOracle::RangeVariance(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the oracle's domain");
  // Independent shard noise: the spanning variance is the sum of the
  // clipped per-shard variances (mirrors Snapshot::RangeCount).
  double total = 0.0;
  const std::int64_t first = range.lo() / shard_width_;
  const std::int64_t last = range.hi() / shard_width_;
  for (std::int64_t s = first; s <= last; ++s) {
    const std::int64_t base = s * shard_width_;
    const std::int64_t width =
        std::min(shard_width_, domain_size_ - base);
    const std::int64_t lo = std::max(range.lo(), base);
    const std::int64_t hi =
        std::min({range.hi(), base + shard_width_ - 1, domain_size_ - 1});
    total += ShardVariance(width, Interval(lo - base, hi - base));
  }
  return total;
}

double VarianceOracle::ShardVariance(std::int64_t width,
                                     const Interval& local) const {
  const double eps = options_.epsilon;
  switch (options_.strategy) {
    case StrategyKind::kLTilde:
      // Sum of |q| independent Laplace(1/eps): 2 |q| / eps^2.
      return 2.0 * static_cast<double>(local.Length()) / (eps * eps);
    case StrategyKind::kHTilde: {
      // Decomposition sum of independent Laplace(ell/eps) node answers.
      TreeLayout tree(width, options_.branching);
      const std::int64_t nodes =
          static_cast<std::int64_t>(DecomposeRange(tree, local).size());
      const double scale = static_cast<double>(tree.height()) / eps;
      return static_cast<double>(nodes) * 2.0 * scale * scale;
    }
    case StrategyKind::kHBar:
    case StrategyKind::kWavelet:
      // Theorem 3 inference and Haar reconstruction are both exactly the
      // OLS estimate under their strategy matrix.
      return RecurrenceFor(width).RangeVariance(local);
    case StrategyKind::kAuto:
      break;  // rejected at construction
  }
  DPHIST_CHECK_MSG(false, "unreachable: unknown StrategyKind");
  return 0.0;
}

const RecurrenceOracle& VarianceOracle::RecurrenceFor(
    std::int64_t width) const {
  auto it = recurrences_.find(width);
  if (it == recurrences_.end()) {
    Result<RecurrenceOracle> oracle = RecurrenceOracle::Create(
        options_.strategy, width, options_.branching, options_.epsilon);
    // Construction validated everything Create checks, so a failure here
    // is a programming error, not an input error.
    DPHIST_CHECK_MSG(oracle.ok(), "recurrence oracle construction failed");
    it = recurrences_
             .emplace(width, std::make_unique<RecurrenceOracle>(
                                 std::move(oracle).value()))
             .first;
  }
  return *it->second;
}

double SquaredErrorRelativeBound(std::int64_t trials, double z_score) {
  DPHIST_CHECK_MSG(trials >= 1, "trials must be >= 1");
  return z_score * std::sqrt(5.0 / static_cast<double>(trials));
}

}  // namespace dphist::planner
