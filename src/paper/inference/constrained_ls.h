// Generic constrained inference (Section 2.2, Definition 2.4).
//
// For query sequences without the special structure of S or H, the
// minimum-L2 consistent answer is the projection of the noisy answer onto
// the affine subspace defined by the constraint set gamma-Q. This module
// provides a small builder for linear equality constraints plus the
// projection itself (delegating to linalg). It solves, e.g., the intro's
// student-grades example where gamma = { x_t = x_p + x_F,
// x_p = x_A + x_B + x_C + x_D }.

#ifndef DPHIST_PAPER_INFERENCE_CONSTRAINED_LS_H_
#define DPHIST_PAPER_INFERENCE_CONSTRAINED_LS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "paper/linalg/matrix.h"

namespace dphist {

/// A set of linear equality constraints sum_i coeff_i q[i] = rhs over a
/// fixed-length answer vector.
class ConstraintSystem {
 public:
  /// Constraints over answer vectors of length `variable_count` (> 0).
  explicit ConstraintSystem(std::int64_t variable_count);

  /// Number of answer-vector entries.
  std::int64_t variable_count() const { return variable_count_; }

  /// Number of constraints added so far.
  std::int64_t constraint_count() const {
    return static_cast<std::int64_t>(rows_.size());
  }

  /// Adds sum of (coefficient * q[index]) terms = rhs. Indices must be in
  /// range and distinct within one constraint.
  void AddConstraint(
      const std::vector<std::pair<std::int64_t, double>>& terms, double rhs);

  /// Convenience: adds the constraint q[target] = sum_i q[parts[i]]
  /// (e.g. "passing students = A + B + C + D").
  void AddSumConstraint(std::int64_t target,
                        const std::vector<std::int64_t>& parts);

  /// True iff `answers` satisfies every constraint within `tolerance`.
  bool IsSatisfied(const std::vector<double>& answers,
                   double tolerance = 1e-9) const;

  /// Largest absolute constraint violation of `answers`.
  double MaxViolation(const std::vector<double>& answers) const;

  /// The dense constraint matrix A and right-hand side b with A q = b.
  /// Requires at least one constraint.
  std::pair<linalg::Matrix, linalg::Vector> ToMatrix() const;

 private:
  std::int64_t variable_count_;
  std::vector<std::vector<std::pair<std::int64_t, double>>> rows_;
  std::vector<double> rhs_;
};

/// Minimum-L2 consistent answer: argmin_q ||q - noisy||_2 subject to the
/// constraint system. Fails if the constraints are redundant
/// (row-rank-deficient) or infeasible as posed.
Result<std::vector<double>> ConstrainedLeastSquares(
    const ConstraintSystem& constraints, const std::vector<double>& noisy);

}  // namespace dphist

#endif  // DPHIST_PAPER_INFERENCE_CONSTRAINED_LS_H_
