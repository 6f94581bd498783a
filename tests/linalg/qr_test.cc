#include "paper/linalg/qr.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dphist::linalg {
namespace {

TEST(QrTest, SolvesSquareSystemExactly) {
  Matrix a = Matrix::FromRows({{2, 1}, {1, 3}});
  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  // x = [1, 2] -> b = [4, 7].
  Vector x = qr.value().SolveLeastSquares({4.0, 7.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QrTest, LeastSquaresOfInconsistentSystem) {
  // Fit y = c to observations {1, 2, 3}: the LS solution is the mean.
  Matrix a = Matrix::FromRows({{1}, {1}, {1}});
  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  Vector x = qr.value().SolveLeastSquares({1.0, 2.0, 3.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
}

TEST(QrTest, LinearRegressionKnownFit) {
  // y = 2 t + 1 exactly; regression must recover slope/intercept.
  Matrix a = Matrix::FromRows({{1, 0}, {1, 1}, {1, 2}, {1, 3}});
  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  Vector x = qr.value().SolveLeastSquares({1.0, 3.0, 5.0, 7.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(QrTest, ResidualOrthogonalToColumns) {
  Rng rng(11);
  const std::size_t m = 20, n = 5;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.NextUniform(-1, 1);
  }
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) b[i] = rng.NextUniform(-5, 5);

  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  Vector x = qr.value().SolveLeastSquares(b);
  Vector residual = Subtract(b, a.Multiply(x));
  // Normal equations: A^T r = 0 characterizes the LS minimizer.
  Vector atr = a.Transpose().Multiply(residual);
  EXPECT_LT(Norm2(atr), 1e-9);
}

TEST(QrTest, RejectsWideMatrix) {
  Matrix a(2, 3);
  auto qr = QrFactorization::Compute(a);
  EXPECT_FALSE(qr.ok());
  EXPECT_EQ(qr.status().code(), StatusCode::kInvalidArgument);
}

TEST(QrTest, RejectsRankDeficient) {
  // Second column is twice the first.
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}, {3, 6}});
  auto qr = QrFactorization::Compute(a);
  EXPECT_FALSE(qr.ok());
}

class QrRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(QrRandomSweep, RecoversPlantedSolution) {
  int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 77 + 1);
  std::size_t rows = static_cast<std::size_t>(2 * n);
  std::size_t cols = static_cast<std::size_t>(n);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.NextUniform(-2, 2);
  }
  Vector planted(cols);
  for (std::size_t j = 0; j < cols; ++j) planted[j] = rng.NextUniform(-3, 3);
  Vector b = a.Multiply(planted);  // Consistent system.

  auto qr = QrFactorization::Compute(a);
  ASSERT_TRUE(qr.ok());
  Vector x = qr.value().SolveLeastSquares(b);
  for (std::size_t j = 0; j < cols; ++j) {
    EXPECT_NEAR(x[j], planted[j], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrRandomSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace dphist::linalg
