// Cholesky factorization A = L L^T for symmetric positive-definite systems.
//
// Used by the equality-constrained least-squares solver (the KKT system's
// Schur complement A A^T is SPD when the constraint matrix has full row
// rank) and by the normal-equations OLS path.

#ifndef DPHIST_PAPER_LINALG_CHOLESKY_H_
#define DPHIST_PAPER_LINALG_CHOLESKY_H_

#include "common/status.h"
#include "paper/linalg/matrix.h"

namespace dphist::linalg {

/// Lower-triangular Cholesky factor of an SPD matrix.
class CholeskyFactorization {
 public:
  /// Factorizes `a`, which must be square and symmetric positive-definite.
  /// Fails with InvalidArgument if `a` is not square or not (numerically)
  /// positive definite.
  static Result<CholeskyFactorization> Compute(const Matrix& a);

  /// Solves A x = b given the factorization. Requires b.size() == n.
  Vector Solve(const Vector& b) const;

  /// The lower-triangular factor L.
  const Matrix& lower() const { return lower_; }

 private:
  explicit CholeskyFactorization(Matrix lower) : lower_(std::move(lower)) {}
  Matrix lower_;
};

/// Convenience one-shot solve of the SPD system A x = b.
Result<Vector> SolveSpd(const Matrix& a, const Vector& b);

}  // namespace dphist::linalg

#endif  // DPHIST_PAPER_LINALG_CHOLESKY_H_
