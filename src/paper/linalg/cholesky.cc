#include "paper/linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dphist::linalg {

Result<CholeskyFactorization> CholeskyFactorization::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  std::size_t n = a.rows();
  // Relative pivot threshold: an exactly singular matrix can produce a
  // pivot of ~1e-16 instead of 0 through round-off, which would otherwise
  // slip past an exact <= 0 test and blow up the solve.
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag, std::abs(a(i, i)));
  }
  const double pivot_floor = 1e-10 * std::max(1.0, max_diag);
  Matrix lower(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= lower(j, k) * lower(j, k);
    if (diag <= pivot_floor || !std::isfinite(diag)) {
      return Status::InvalidArgument(
          "matrix is not numerically positive definite");
    }
    lower(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= lower(i, k) * lower(j, k);
      lower(i, j) = sum / lower(j, j);
    }
  }
  return CholeskyFactorization(std::move(lower));
}

Vector CholeskyFactorization::Solve(const Vector& b) const {
  std::size_t n = lower_.rows();
  DPHIST_CHECK(b.size() == n);
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= lower_(i, k) * y[k];
    y[i] = sum / lower_(i, i);
  }
  // Back substitution: L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= lower_(k, i) * x[k];
    x[i] = sum / lower_(i, i);
  }
  return x;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  auto factor = CholeskyFactorization::Compute(a);
  if (!factor.ok()) return factor.status();
  return factor.value().Solve(b);
}

}  // namespace dphist::linalg
