#include "paper/analysis/strategy_matrix.h"

#include <cmath>

#include "common/check.h"
#include "tree/tree_layout.h"

namespace dphist {

linalg::Matrix IdentityStrategy(std::int64_t domain_size) {
  DPHIST_CHECK(domain_size >= 1);
  return linalg::Matrix::Identity(static_cast<std::size_t>(domain_size));
}

linalg::Matrix HierarchicalStrategy(std::int64_t domain_size,
                                    std::int64_t branching) {
  TreeLayout tree(domain_size, branching);
  linalg::Matrix strategy(static_cast<std::size_t>(tree.node_count()),
                          static_cast<std::size_t>(domain_size));
  for (std::int64_t v = 0; v < tree.node_count(); ++v) {
    Interval covered = tree.NodeRange(v);
    std::int64_t hi = std::min(covered.hi(), domain_size - 1);
    for (std::int64_t leaf = covered.lo(); leaf <= hi; ++leaf) {
      strategy(static_cast<std::size_t>(v),
               static_cast<std::size_t>(leaf)) = 1.0;
    }
  }
  return strategy;
}

linalg::Matrix WaveletStrategy(std::int64_t domain_size) {
  DPHIST_CHECK_MSG(domain_size >= 1 &&
                       (domain_size & (domain_size - 1)) == 0,
                   "wavelet strategy needs a power-of-two domain");
  const std::size_t n = static_cast<std::size_t>(domain_size);
  linalg::Matrix strategy(n, n);
  // Row 0: the base coefficient (global average, weight n): the query
  // W * (1/n) * sum = sum.
  for (std::size_t j = 0; j < n; ++j) strategy(0, j) = 1.0;
  // Detail rows: node at BFS index i covers a block of `size` leaves;
  // the raw coefficient is (avgL - avgR)/2 = sum over block of
  // (+1/size, -1/size); scaling by the weight (= size) gives +-1 entries.
  std::size_t level_start = 1;
  std::size_t block = n;
  while (level_start < n) {
    for (std::size_t i = level_start; i < 2 * level_start; ++i) {
      std::size_t offset = (i - level_start) * block;
      for (std::size_t j = 0; j < block / 2; ++j) {
        strategy(i, offset + j) = 1.0;
        strategy(i, offset + block / 2 + j) = -1.0;
      }
    }
    block /= 2;
    level_start *= 2;
  }
  return strategy;
}

double StrategyL1Sensitivity(const linalg::Matrix& strategy) {
  double worst = 0.0;
  for (std::size_t j = 0; j < strategy.cols(); ++j) {
    double column = 0.0;
    for (std::size_t i = 0; i < strategy.rows(); ++i) {
      column += std::abs(strategy(i, j));
    }
    worst = std::max(worst, column);
  }
  return worst;
}

Result<StrategyAnalyzer> StrategyAnalyzer::Create(
    const linalg::Matrix& strategy, double epsilon) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  double sensitivity = StrategyL1Sensitivity(strategy);
  if (sensitivity <= 0.0) {
    return Status::InvalidArgument("strategy has an all-zero column");
  }
  linalg::Matrix gram = strategy.Transpose().Multiply(strategy);
  auto factor = linalg::CholeskyFactorization::Compute(gram);
  if (!factor.ok()) {
    return Status::InvalidArgument(
        "strategy is column-rank-deficient: " + factor.status().message());
  }
  return StrategyAnalyzer(static_cast<std::int64_t>(strategy.cols()),
                          sensitivity / epsilon, sensitivity,
                          std::move(factor).value());
}

double StrategyAnalyzer::WorkloadVariance(
    const linalg::Vector& workload) const {
  DPHIST_CHECK(workload.size() == static_cast<std::size_t>(domain_size_));
  linalg::Vector z = gram_.Solve(workload);
  return 2.0 * noise_scale_ * noise_scale_ * linalg::Dot(workload, z);
}

double StrategyAnalyzer::RangeVariance(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the strategy's domain");
  linalg::Vector workload(static_cast<std::size_t>(domain_size_), 0.0);
  for (std::int64_t i = range.lo(); i <= range.hi(); ++i) {
    workload[static_cast<std::size_t>(i)] = 1.0;
  }
  return WorkloadVariance(workload);
}

}  // namespace dphist
