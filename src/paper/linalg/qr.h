// Householder QR factorization and least-squares solves.
//
// QR is the numerically robust path for the tall systems that arise when
// cross-checking hierarchical inference: the observation matrix X maps n
// leaf counts to m >= n tree counts and is full column rank by
// construction, so min ||X q - y||_2 has the unique solution R^-1 Q^T y.

#ifndef DPHIST_PAPER_LINALG_QR_H_
#define DPHIST_PAPER_LINALG_QR_H_

#include "common/status.h"
#include "paper/linalg/matrix.h"

namespace dphist::linalg {

/// Householder QR of an m x n matrix with m >= n.
class QrFactorization {
 public:
  /// Factorizes `a`. Fails with InvalidArgument if m < n or if `a` is
  /// (numerically) column-rank-deficient.
  static Result<QrFactorization> Compute(const Matrix& a);

  /// Solves the least-squares problem min ||A x - b||_2.
  /// Requires b.size() == m.
  Vector SolveLeastSquares(const Vector& b) const;

 private:
  QrFactorization(Matrix packed, Vector betas)
      : packed_(std::move(packed)), betas_(std::move(betas)) {}

  /// Householder vectors below the diagonal, R on and above it.
  Matrix packed_;
  /// Householder scalars (2 / v^T v per reflector).
  Vector betas_;
};

}  // namespace dphist::linalg

#endif  // DPHIST_PAPER_LINALG_QR_H_
