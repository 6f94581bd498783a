// Test-side helpers around the closed-form variance oracle. The oracle
// itself lives in the production planner (src/planner/variance_oracle.h),
// where the cost-based strategy/shard planner consumes the same math;
// test code keeps its historical dphist::test_support spelling through
// the alias below. What only the statistical tests need lives here: a
// factory for configurations a test knows are valid, and the Monte-Carlo
// tolerance the conformance suites compare against.

#ifndef DPHIST_TESTS_SUPPORT_VARIANCE_ORACLE_H_
#define DPHIST_TESTS_SUPPORT_VARIANCE_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/status.h"
#include "planner/variance_oracle.h"
#include "service/snapshot.h"

namespace dphist::test_support {

using planner::VarianceOracle;

/// VarianceOracle::Create for a configuration the test knows is valid;
/// aborts the test binary otherwise.
inline VarianceOracle MakeVarianceOracle(const SnapshotOptions& options,
                                         std::int64_t domain_size) {
  Result<VarianceOracle> oracle = VarianceOracle::Create(options, domain_size);
  DPHIST_CHECK_MSG(oracle.ok(), oracle.status().message().c_str());
  return std::move(oracle).value();
}

/// Conservative relative half-width of a Monte-Carlo mean of `trials`
/// iid squared errors, at `z_score` standard deviations.
///
/// Every linear-protocol answer error X is a sum of independent Laplace
/// terms, whose excess kurtosis (3 for a single Laplace) can only shrink
/// under independent summation, so Var(X^2) <= 5 Var(X)^2. The mean of T
/// trials therefore has relative standard deviation at most sqrt(5/T),
/// and |empirical / exact - 1| <= z * sqrt(5/T) holds except with the
/// z-score's tail probability.
inline double SquaredErrorRelativeBound(std::int64_t trials, double z_score) {
  DPHIST_CHECK_MSG(trials >= 1, "trials must be >= 1");
  return z_score * std::sqrt(5.0 / static_cast<double>(trials));
}

}  // namespace dphist::test_support

#endif  // DPHIST_TESTS_SUPPORT_VARIANCE_ORACLE_H_
