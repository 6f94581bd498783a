#include "paper/linalg/cholesky.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dphist::linalg {
namespace {

TEST(CholeskyTest, FactorOfIdentityIsIdentity) {
  auto f = CholeskyFactorization::Compute(Matrix::Identity(3));
  ASSERT_TRUE(f.ok());
  const Matrix& l = f.value().lower();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(CholeskyTest, ReconstructsInput) {
  Matrix a = Matrix::FromRows({{4, 2, 0}, {2, 5, 3}, {0, 3, 6}});
  auto f = CholeskyFactorization::Compute(a);
  ASSERT_TRUE(f.ok());
  const Matrix& l = f.value().lower();
  Matrix rebuilt = l.Multiply(l.Transpose());
  EXPECT_LT(rebuilt.Subtract(a).MaxAbs(), 1e-12);
}

TEST(CholeskyTest, SolveKnownSystem) {
  // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5].
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto x = SolveSpd(a, {10.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.75, 1e-12);
  EXPECT_NEAR(x.value()[1], 1.5, 1e-12);
}

TEST(CholeskyTest, SolveResidualIsTiny) {
  Rng rng(5);
  const std::size_t n = 12;
  // Random SPD matrix: B B^T + n I.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.NextUniform(-1, 1);
  }
  Matrix a = b.Multiply(b.Transpose());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  Vector rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = rng.NextUniform(-10, 10);

  auto x = SolveSpd(a, rhs);
  ASSERT_TRUE(x.ok());
  Vector residual = Subtract(a.Multiply(x.value()), rhs);
  EXPECT_LT(Norm2(residual), 1e-9);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  auto f = CholeskyFactorization::Compute(a);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  auto f = CholeskyFactorization::Compute(a);
  EXPECT_FALSE(f.ok());
}

TEST(CholeskyTest, RejectsSingular) {
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  auto f = CholeskyFactorization::Compute(a);
  EXPECT_FALSE(f.ok());
}

}  // namespace
}  // namespace dphist::linalg
