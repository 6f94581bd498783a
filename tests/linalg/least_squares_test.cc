#include "paper/linalg/least_squares.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dphist::linalg {
namespace {

TEST(OlsTest, MeanAsRegression) {
  Matrix a = Matrix::FromRows({{1}, {1}, {1}, {1}});
  auto x = SolveOls(a, {2.0, 4.0, 6.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 5.0, 1e-12);
}

TEST(OlsTest, FittedValuesMinimizeResidual) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}});
  Vector y = {1.0, 2.0, 4.0};
  auto fitted = OlsFittedValues(a, y);
  ASSERT_TRUE(fitted.ok());
  // Perturbing the solution should never reduce the residual.
  auto x = SolveOls(a, y);
  ASSERT_TRUE(x.ok());
  double best = Norm2(Subtract(y, a.Multiply(x.value())));
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Vector perturbed = x.value();
    for (double& v : perturbed) v += rng.NextUniform(-0.1, 0.1);
    double alt = Norm2(Subtract(y, a.Multiply(perturbed)));
    EXPECT_GE(alt + 1e-12, best);
  }
}

TEST(OlsTest, SizeMismatchRejected) {
  Matrix a = Matrix::FromRows({{1}, {1}});
  auto x = SolveOls(a, {1.0, 2.0, 3.0});
  EXPECT_FALSE(x.ok());
}

TEST(ProjectionTest, AlreadyFeasibleIsFixedPoint) {
  // Constraint: q0 + q1 = 4. Target (1, 3) already satisfies it.
  Matrix a = Matrix::FromRows({{1, 1}});
  auto q = ProjectOntoAffineSubspace(a, {4.0}, {1.0, 3.0});
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(q.value()[1], 3.0, 1e-12);
}

TEST(ProjectionTest, ProjectsToNearestPointOnLine) {
  // Constraint: q0 + q1 = 2; target (2, 2) -> nearest point (1, 1).
  Matrix a = Matrix::FromRows({{1, 1}});
  auto q = ProjectOntoAffineSubspace(a, {2.0}, {2.0, 2.0});
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(q.value()[1], 1.0, 1e-12);
}

TEST(ProjectionTest, SatisfiesConstraintsExactly) {
  Matrix a = Matrix::FromRows({{1, -1, 0}, {0, 1, -1}});
  Vector b = {0.5, -0.25};
  auto q = ProjectOntoAffineSubspace(a, b, {3.0, 1.0, 2.0});
  ASSERT_TRUE(q.ok());
  Vector achieved = a.Multiply(q.value());
  EXPECT_NEAR(achieved[0], b[0], 1e-10);
  EXPECT_NEAR(achieved[1], b[1], 1e-10);
}

TEST(ProjectionTest, IsIdempotent) {
  Matrix a = Matrix::FromRows({{1, 1, 1}});
  Vector b = {6.0};
  auto once = ProjectOntoAffineSubspace(a, b, {1.0, 2.0, 6.0});
  ASSERT_TRUE(once.ok());
  auto twice = ProjectOntoAffineSubspace(a, b, once.value());
  ASSERT_TRUE(twice.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(twice.value()[i], once.value()[i], 1e-10);
  }
}

TEST(ProjectionTest, NoFeasiblePointIsCloser) {
  Matrix a = Matrix::FromRows({{2, -1}});
  Vector b = {1.0};
  Vector target = {3.0, 0.5};
  auto q = ProjectOntoAffineSubspace(a, b, target);
  ASSERT_TRUE(q.ok());
  double best = Norm2(Subtract(q.value(), target));
  Rng rng(17);
  // Walk along the constraint line and verify no point beats the
  // projection.
  for (int trial = 0; trial < 100; ++trial) {
    double t = rng.NextUniform(-10.0, 10.0);
    Vector candidate = {t, 2.0 * t - 1.0};  // Satisfies 2x - y = 1.
    EXPECT_GE(Norm2(Subtract(candidate, target)) + 1e-12, best);
  }
}

TEST(ProjectionTest, RedundantConstraintsRejected) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}});
  auto q = ProjectOntoAffineSubspace(a, {2.0, 4.0}, {0.0, 0.0});
  EXPECT_FALSE(q.ok());
}

TEST(ProjectionTest, DimensionMismatchesRejected) {
  Matrix a = Matrix::FromRows({{1, 1}});
  EXPECT_FALSE(ProjectOntoAffineSubspace(a, {1.0, 2.0}, {0.0, 0.0}).ok());
  EXPECT_FALSE(ProjectOntoAffineSubspace(a, {1.0}, {0.0, 0.0, 0.0}).ok());
}

}  // namespace
}  // namespace dphist::linalg
