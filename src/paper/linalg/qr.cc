#include "paper/linalg/qr.h"

#include <cmath>

#include "common/check.h"

namespace dphist::linalg {

Result<QrFactorization> QrFactorization::Compute(const Matrix& a) {
  std::size_t m = a.rows();
  std::size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument("QR requires rows >= cols");
  }
  Matrix packed = a;
  Vector betas(n, 0.0);

  for (std::size_t j = 0; j < n; ++j) {
    // Build the Householder reflector for column j below the diagonal.
    double norm_sq = 0.0;
    for (std::size_t i = j; i < m; ++i) norm_sq += packed(i, j) * packed(i, j);
    double norm = std::sqrt(norm_sq);
    if (norm <= 1e-12) {
      return Status::InvalidArgument("matrix is column-rank-deficient");
    }
    double alpha = packed(j, j) >= 0.0 ? -norm : norm;
    // v = x - alpha * e1, stored in place; v[j] is the pivot component.
    double vj = packed(j, j) - alpha;
    packed(j, j) = alpha;  // R diagonal entry.
    // v^T v = norm_sq - 2 alpha x_j + alpha^2 = 2 (norm_sq - alpha x_j)
    // using alpha^2 = norm_sq.
    double vtv = vj * vj;
    for (std::size_t i = j + 1; i < m; ++i) {
      vtv += packed(i, j) * packed(i, j);
    }
    if (vtv <= 1e-24) {
      betas[j] = 0.0;
      continue;
    }
    double beta = 2.0 / vtv;
    betas[j] = beta;

    // Apply the reflector to the remaining columns: A := (I - beta v v^T) A.
    for (std::size_t col = j + 1; col < n; ++col) {
      double dot = vj * packed(j, col);
      for (std::size_t i = j + 1; i < m; ++i) {
        dot += packed(i, j) * packed(i, col);
      }
      double scale = beta * dot;
      packed(j, col) -= scale * vj;
      for (std::size_t i = j + 1; i < m; ++i) {
        packed(i, col) -= scale * packed(i, j);
      }
    }
    // Store v's tail in the column below the diagonal and remember vj by
    // normalizing: store tail / vj so v = (1, tail...) * vj. We instead keep
    // the tail as-is and stash vj in a parallel location: pack vj into the
    // beta via sign? Simpler: normalize the stored tail by vj and fold vj^2
    // into beta.
    for (std::size_t i = j + 1; i < m; ++i) {
      packed(i, j) /= vj;
    }
    betas[j] = beta * vj * vj;
  }
  return QrFactorization(std::move(packed), std::move(betas));
}

Vector QrFactorization::SolveLeastSquares(const Vector& b) const {
  std::size_t m = packed_.rows();
  std::size_t n = packed_.cols();
  DPHIST_CHECK(b.size() == m);

  // Apply Q^T to b: reflectors are v = (1, tail...) with scalar betas_.
  Vector y = b;
  for (std::size_t j = 0; j < n; ++j) {
    if (betas_[j] == 0.0) continue;
    double dot = y[j];
    for (std::size_t i = j + 1; i < m; ++i) dot += packed_(i, j) * y[i];
    double scale = betas_[j] * dot;
    y[j] -= scale;
    for (std::size_t i = j + 1; i < m; ++i) y[i] -= scale * packed_(i, j);
  }

  // Back-substitute R x = y[0..n).
  Vector x(n);
  for (std::size_t jj = n; jj > 0; --jj) {
    std::size_t j = jj - 1;
    double sum = y[j];
    for (std::size_t k = j + 1; k < n; ++k) sum -= packed_(j, k) * x[k];
    x[j] = sum / packed_(j, j);
  }
  return x;
}

}  // namespace dphist::linalg
