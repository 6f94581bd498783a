// Ordinary and equality-constrained least squares.
//
// Two problems from the paper are expressed here:
//
//  1. OLS (Section 4.1): the noisy hierarchical answers are y = X q + noise
//     where q holds the unknown leaf counts and X maps leaves to tree nodes.
//     The minimum-L2 consistent estimate is the OLS fit X q_hat. Theorem 3's
//     two-pass recurrence computes the same thing in linear time; tests use
//     this module as the ground truth it must match.
//
//  2. Affine projection (Section 2.2, Definition 2.4): given noisy answers
//     q_tilde and equality constraints A q = b, find the closest consistent
//     vector. This also solves the intro's student-grades example.

#ifndef DPHIST_PAPER_LINALG_LEAST_SQUARES_H_
#define DPHIST_PAPER_LINALG_LEAST_SQUARES_H_

#include "common/status.h"
#include "paper/linalg/matrix.h"

namespace dphist::linalg {

/// Solves min_x ||a x - y||_2 by Householder QR. `a` must be m x n with
/// m >= n and full column rank; y.size() must equal m.
Result<Vector> SolveOls(const Matrix& a, const Vector& y);

/// Returns the fitted values a * x_hat of the OLS solution.
Result<Vector> OlsFittedValues(const Matrix& a, const Vector& y);

/// Projects `target` onto the affine subspace { q : a q = b }:
///   argmin_q ||q - target||_2  subject to  a q = b.
/// Solved via the KKT system: q = target + a^T lambda with
/// (a a^T) lambda = b - a * target. `a` must have full row rank.
Result<Vector> ProjectOntoAffineSubspace(const Matrix& a, const Vector& b,
                                         const Vector& target);

}  // namespace dphist::linalg

#endif  // DPHIST_PAPER_LINALG_LEAST_SQUARES_H_
