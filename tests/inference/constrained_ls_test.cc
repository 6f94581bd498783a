#include "paper/inference/constrained_ls.h"

#include <gtest/gtest.h>

#include "common/laplace.h"
#include "common/rng.h"
#include "paper/common/statistics.h"

namespace dphist {
namespace {

// Variable layout for the intro's student-grades example:
// 0: x_t (total), 1: x_p (passing), 2..5: x_A..x_D, 6: x_F.
ConstraintSystem GradesConstraints() {
  ConstraintSystem constraints(7);
  constraints.AddSumConstraint(0, {1, 6});         // x_t = x_p + x_F
  constraints.AddSumConstraint(1, {2, 3, 4, 5});   // x_p = A + B + C + D
  return constraints;
}

TEST(ConstraintSystemTest, CountsAndSatisfaction) {
  ConstraintSystem constraints = GradesConstraints();
  EXPECT_EQ(constraints.variable_count(), 7);
  EXPECT_EQ(constraints.constraint_count(), 2);
  // A consistent assignment: 10 students, 8 passing, 2 F.
  std::vector<double> good = {10, 8, 3, 2, 2, 1, 2};
  EXPECT_TRUE(constraints.IsSatisfied(good));
  EXPECT_DOUBLE_EQ(constraints.MaxViolation(good), 0.0);

  std::vector<double> bad = {11, 8, 3, 2, 2, 1, 2};  // x_t off by one
  EXPECT_FALSE(constraints.IsSatisfied(bad));
  EXPECT_DOUBLE_EQ(constraints.MaxViolation(bad), 1.0);
}

TEST(ConstrainedLsTest, ProjectionSatisfiesGradeConstraints) {
  ConstraintSystem constraints = GradesConstraints();
  // A noisy, inconsistent response.
  std::vector<double> noisy = {10.7, 7.2, 3.4, 1.8, 2.3, 0.6, 2.4};
  auto inferred = ConstrainedLeastSquares(constraints, noisy);
  ASSERT_TRUE(inferred.ok());
  EXPECT_TRUE(constraints.IsSatisfied(inferred.value(), 1e-8));
}

TEST(ConstrainedLsTest, FeasibleInputIsFixedPoint) {
  ConstraintSystem constraints = GradesConstraints();
  std::vector<double> feasible = {10, 8, 3, 2, 2, 1, 2};
  auto inferred = ConstrainedLeastSquares(constraints, feasible);
  ASSERT_TRUE(inferred.ok());
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    EXPECT_NEAR(inferred.value()[i], feasible[i], 1e-10);
  }
}

TEST(ConstrainedLsTest, NoFeasibleCandidateIsCloser) {
  ConstraintSystem constraints = GradesConstraints();
  std::vector<double> noisy = {9.1, 8.9, 2.2, 2.0, 2.1, 1.9, 1.2};
  auto inferred = ConstrainedLeastSquares(constraints, noisy);
  ASSERT_TRUE(inferred.ok());
  double best = SquaredError(inferred.value(), noisy);

  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a random feasible point: free-choose grades, derive x_p, x_t.
    std::vector<double> q(7);
    for (int i = 2; i <= 6; ++i) q[static_cast<std::size_t>(i)] =
        rng.NextUniform(0, 5);
    q[1] = q[2] + q[3] + q[4] + q[5];
    q[0] = q[1] + q[6];
    EXPECT_GE(SquaredError(q, noisy) + 1e-9, best);
  }
}

TEST(ConstrainedLsTest, ImprovesAccuracyOfDerivedTotals) {
  // The intro's motivation: with sensitivity-3 noise on all 7 answers,
  // constrained inference should improve the accuracy of the whole vector
  // on average (it projects out 2 of the 7 noise dimensions).
  ConstraintSystem constraints = GradesConstraints();
  std::vector<double> truth = {30, 24, 10, 7, 4, 3, 6};
  Rng rng(9);
  RunningStat noisy_err, inferred_err;
  LaplaceDistribution noise(3.0);  // sensitivity 3 at eps = 1
  for (int t = 0; t < 3000; ++t) {
    std::vector<double> noisy = truth;
    for (double& x : noisy) x += noise.Sample(&rng);
    noisy_err.Add(SquaredError(noisy, truth));
    auto inferred = ConstrainedLeastSquares(constraints, noisy);
    ASSERT_TRUE(inferred.ok());
    inferred_err.Add(SquaredError(inferred.value(), truth));
  }
  EXPECT_LT(inferred_err.Mean(), noisy_err.Mean());
  // The projection removes rank(A)=2 of 7 noise dimensions; expected
  // reduction factor 5/7. Allow generous slack around it.
  EXPECT_NEAR(inferred_err.Mean() / noisy_err.Mean(), 5.0 / 7.0, 0.08);
}

TEST(ConstrainedLsTest, NoConstraintsIsIdentity) {
  ConstraintSystem constraints(3);
  std::vector<double> noisy = {1.5, -2.0, 7.25};
  auto inferred = ConstrainedLeastSquares(constraints, noisy);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred.value(), noisy);
}

TEST(ConstrainedLsTest, ExplicitCoefficientConstraint) {
  // 2 q0 - q1 = 3, projecting (0, 0): expected q = (1.2, -0.6).
  ConstraintSystem constraints(2);
  constraints.AddConstraint({{0, 2.0}, {1, -1.0}}, 3.0);
  auto inferred = ConstrainedLeastSquares(constraints, {0.0, 0.0});
  ASSERT_TRUE(inferred.ok());
  EXPECT_NEAR(inferred.value()[0], 1.2, 1e-10);
  EXPECT_NEAR(inferred.value()[1], -0.6, 1e-10);
}

TEST(ConstrainedLsTest, LengthMismatchRejected) {
  ConstraintSystem constraints(3);
  constraints.AddSumConstraint(0, {1, 2});
  auto inferred = ConstrainedLeastSquares(constraints, {1.0, 2.0});
  EXPECT_FALSE(inferred.ok());
  EXPECT_EQ(inferred.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstrainedLsTest, RedundantConstraintsReported) {
  ConstraintSystem constraints(2);
  constraints.AddSumConstraint(0, {1});
  constraints.AddSumConstraint(0, {1});  // duplicate row
  auto inferred = ConstrainedLeastSquares(constraints, {1.0, 2.0});
  EXPECT_FALSE(inferred.ok());
}

TEST(ConstraintSystemDeathTest, BadIndicesRejected) {
  ConstraintSystem constraints(2);
  EXPECT_DEATH(constraints.AddConstraint({{5, 1.0}}, 0.0), "");
  EXPECT_DEATH(constraints.AddConstraint({{0, 1.0}, {0, 2.0}}, 0.0),
               "duplicate");
  EXPECT_DEATH(constraints.AddConstraint({}, 0.0), "at least one");
}

}  // namespace
}  // namespace dphist
