// The matrix-mechanism view of query strategies (Li, Hay, Rastogi,
// Miklau, McGregor — PODS 2010; the paper's reference [15] and the lens
// Section 6 uses to relate H to the wavelet technique).
//
// A *strategy* is a matrix A whose rows are the counting queries actually
// asked of the Laplace mechanism; the unknowns x are the unit counts.
// The mechanism returns y = A x + Lap(Delta(A)/eps)^m where Delta(A) is
// the L1 sensitivity (the maximum column absolute sum). Any workload
// query w (a row over the unit counts) is then answered by the OLS
// estimate w^T x_hat, whose variance is *exactly*
//
//     Var(w) = 2 (Delta(A)/eps)^2 * w^T (A^T A)^{-1} w.
//
// This module builds the strategy matrices for the paper's estimators
// (identity = L, hierarchical = H for any k, and the weighted Haar
// wavelet) and evaluates that closed form, giving noise-free "error
// tables" that the sampled experiments must match — and do (see
// strategy_matrix_test.cc and bench_matrix_mechanism).

#ifndef DPHIST_PAPER_ANALYSIS_STRATEGY_MATRIX_H_
#define DPHIST_PAPER_ANALYSIS_STRATEGY_MATRIX_H_

#include <cstdint>

#include "common/status.h"
#include "domain/interval.h"
#include "paper/linalg/cholesky.h"
#include "paper/linalg/matrix.h"

namespace dphist {

/// The identity strategy: ask every unit count (the L query).
linalg::Matrix IdentityStrategy(std::int64_t domain_size);

/// The hierarchical strategy: one row per node of the k-ary interval
/// tree over the (padded) domain (the H query). Columns beyond the
/// domain size are dropped, matching padding-with-zeros semantics.
linalg::Matrix HierarchicalStrategy(std::int64_t domain_size,
                                    std::int64_t branching);

/// The Privelet strategy: the Haar basis with each row scaled by its
/// weight (W = block size), so that uniform per-row noise reproduces the
/// weighted noise of estimators/wavelet.h. Requires a power-of-two
/// domain.
linalg::Matrix WaveletStrategy(std::int64_t domain_size);

/// L1 sensitivity of a strategy: the maximum column absolute sum. The
/// serving estimators and the planner use the closed forms
/// HierarchicalSensitivity (query/hierarchical_query.h) and
/// HaarWeightedSensitivity (estimators/wavelet.h); tests check them
/// against this.
double StrategyL1Sensitivity(const linalg::Matrix& strategy);

/// Precomputed analyzer for one strategy at one epsilon.
class StrategyAnalyzer {
 public:
  /// Factorizes A^T A. Fails if the strategy does not have full column
  /// rank (some unit count would be unrecoverable).
  static Result<StrategyAnalyzer> Create(const linalg::Matrix& strategy,
                                         double epsilon);

  /// Exact expected squared error of the OLS answer to the range query
  /// c([lo, hi]) under this strategy.
  double RangeVariance(const Interval& range) const;

  /// Exact expected squared error for an arbitrary workload row.
  double WorkloadVariance(const linalg::Vector& workload) const;

  /// The strategy's L1 sensitivity.
  double sensitivity() const { return sensitivity_; }

  /// Domain size (columns of the strategy).
  std::int64_t domain_size() const { return domain_size_; }

 private:
  StrategyAnalyzer(std::int64_t domain_size, double noise_scale,
                   double sensitivity, linalg::CholeskyFactorization gram)
      : domain_size_(domain_size),
        noise_scale_(noise_scale),
        sensitivity_(sensitivity),
        gram_(std::move(gram)) {}

  std::int64_t domain_size_;
  double noise_scale_;
  double sensitivity_;
  linalg::CholeskyFactorization gram_;
};

}  // namespace dphist

#endif  // DPHIST_PAPER_ANALYSIS_STRATEGY_MATRIX_H_
