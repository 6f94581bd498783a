#include "paper/linalg/least_squares.h"

#include "common/check.h"
#include "paper/linalg/cholesky.h"
#include "paper/linalg/qr.h"

namespace dphist::linalg {

Result<Vector> SolveOls(const Matrix& a, const Vector& y) {
  if (y.size() != a.rows()) {
    return Status::InvalidArgument("OLS: y.size() must equal a.rows()");
  }
  auto qr = QrFactorization::Compute(a);
  if (!qr.ok()) return qr.status();
  return qr.value().SolveLeastSquares(y);
}

Result<Vector> OlsFittedValues(const Matrix& a, const Vector& y) {
  auto x = SolveOls(a, y);
  if (!x.ok()) return x.status();
  return a.Multiply(x.value());
}

Result<Vector> ProjectOntoAffineSubspace(const Matrix& a, const Vector& b,
                                         const Vector& target) {
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("projection: b.size() must equal a.rows()");
  }
  if (target.size() != a.cols()) {
    return Status::InvalidArgument(
        "projection: target.size() must equal a.cols()");
  }
  // Schur complement of the KKT system.
  Matrix gram = a.Multiply(a.Transpose());
  Vector residual = Subtract(b, a.Multiply(target));
  auto lambda = SolveSpd(gram, residual);
  if (!lambda.ok()) {
    return Status::InvalidArgument(
        "projection: constraint matrix is row-rank-deficient (" +
        lambda.status().message() + ")");
  }
  Vector correction = a.Transpose().Multiply(lambda.value());
  return Add(target, correction);
}

}  // namespace dphist::linalg
