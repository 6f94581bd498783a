// Closed-form evaluation of w^T (A^T A)^{-1} w for the strategies whose
// Gram matrix has exploitable structure — the paper's Section 4 variance
// recurrences turned into an O(branching * height) range-variance oracle.
//
// The dense route (paper/analysis/strategy_matrix.h) materializes A, factorizes
// the width x width Gram matrix (O(width^3)) and back-substitutes a dense
// workload vector per query (O(width^2)). That is exact but unaffordable
// at serving widths, so it survives only as the tests' reference. Both
// strategies this oracle serves admit exact closed forms:
//
//   H-bar (hierarchical strategy H, any branching k):
//     A^T A = G with G_ij = |common ancestors of leaves i and j|, i.e.
//     G = sum over tree nodes v of 1_v 1_v^T (1_v = indicator of the
//     real leaves under v; padded-only nodes are all-zero rows and drop
//     out). Solving G z = w row-by-row gives, for each leaf i,
//     sum_{v on path(i)} S_v = w_i where S_v is the subtree sum of z.
//     Writing t_v for the sum of S_u over strict ancestors u of v, both
//     the subtree sum and the subtree inner product are AFFINE in t_v:
//
//       S_v = alpha_v - beta_v t_v,   sum_{i under v} w_i z_i
//                                         = delta_v - gamma_v t_v,
//
//     with leaf seeds (alpha, beta, delta, gamma) = (w, 1, w^2, w) and
//     the one-step combination over children (A = sum alpha_c,
//     B = sum beta_c, Gamma = sum gamma_c, S = sum delta_c):
//
//       alpha = A / (1 + B)          beta  = B / (1 + B)
//       delta = S - Gamma * alpha    gamma = Gamma * (1 - beta)
//
//     At the root t = 0, so w^T G^{-1} w = delta_root. A range workload
//     only ever splits nodes on its two boundary paths; every other
//     subtree is either fully inside (w = 1) or fully outside (w = 0)
//     the range, and those tuples depend only on the subtree SHAPE.
//     Clipped (non-power) domains have at most one partial subtree per
//     depth (the ancestors of the last real leaf), so all shapes are
//     precomputed per depth and a query costs O(branching * height).
//
//   Wavelet (Privelet weighted Haar, power-of-two padded width P):
//     the strategy's rows are mutually orthogonal, so A^T A has the rows
//     as eigenvectors with eigenvalues |r|^2 and
//
//       w^T (A^T A)^{-1} w = sum_r (w . r)^2 / |r|^4.
//
//     For a range workload the base row contributes len^2 / P^2 and a
//     detail row of block size b contributes ((cL - cR)/b)^2 where
//     cL/cR count range positions in the block's halves — zero unless
//     the block straddles a range endpoint, leaving O(log P) terms.
//
// Sensitivities are the known column sums, each written once in core:
// tree height for H (HierarchicalSensitivity, query/hierarchical_query.h)
// and 1 + log2(P) for the weighted Haar (HaarWeightedSensitivity,
// estimators/wavelet.h), so
//
//   Var(w) = 2 (Delta / eps)^2 * w^T (A^T A)^{-1} w
//
// matches StrategyAnalyzer::RangeVariance exactly (the property suite in
// tests/planner/recurrence_oracle_test.cc pins them together to 1e-9).

#ifndef DPHIST_PLANNER_RECURRENCE_ORACLE_H_
#define DPHIST_PLANNER_RECURRENCE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "domain/interval.h"
#include "service/snapshot.h"

namespace dphist::planner {

/// Exact O(branching * height) range-variance oracle for one strategy
/// over one (shard) width. Immutable after Create; no per-query
/// allocation.
class RecurrenceOracle {
 public:
  /// True for the strategies whose Gram quadratic form this oracle can
  /// evaluate (kHBar at any branching, kWavelet).
  static bool Supports(StrategyKind kind);

  /// Builds the per-depth shape tables for `kind` over `width` real
  /// positions. The wavelet pads to the next power of two internally,
  /// as its dense strategy matrix does. `branching` is
  /// used by kHBar only. Fails on unsupported kinds or invalid
  /// parameters; never CHECK-fails.
  static Result<RecurrenceOracle> Create(StrategyKind kind,
                                         std::int64_t width,
                                         std::int64_t branching,
                                         double epsilon);

  /// Exact Var[answer(q) - truth(q)] for the local range `q` within
  /// [0, width): 2 (Delta/eps)^2 * GramQuadraticForm(q). Equals
  /// StrategyAnalyzer::RangeVariance for the same strategy matrix.
  double RangeVariance(const Interval& range) const;

  /// w^T (A^T A)^{-1} w for the range-indicator workload (no noise
  /// factor).
  double GramQuadraticForm(const Interval& range) const;

  /// Reference path for the hierarchical form: the same elimination
  /// recursed all the way to the leaves, O(width) per query, sharing no
  /// memoized shape table with the fast path. Lets tests cross-check the
  /// two at widths where the dense Cholesky oracle is unaffordable.
  /// kHBar only (the wavelet form has no memo to bypass).
  double GramQuadraticFormUnmemoized(const Interval& range) const;

  std::int64_t width() const { return width_; }
  /// Width the underlying strategy matrix covers: `width` for kHBar,
  /// the next power of two for kWavelet (the Haar matrix only exists at
  /// power-of-two sizes).
  std::int64_t analyzer_width() const { return analyzer_width_; }
  double sensitivity() const { return sensitivity_; }

 private:
  /// The affine-elimination state of one subtree: S = alpha - beta * t,
  /// sum w_i z_i = delta - gamma * t (t = sum of strict-ancestor S's).
  struct NodeState {
    double alpha = 0.0;
    double beta = 0.0;
    double delta = 0.0;
    double gamma = 0.0;
  };

  RecurrenceOracle() = default;

  double WaveletQuadraticForm(const Interval& range) const;

  /// Elimination state of the node at `depth` whose subtree starts at
  /// leaf `base` (base < width_), for the workload 1_range. Recurses
  /// only through subtrees straddling a range endpoint; everything else
  /// is a precomputed shape lookup.
  NodeState EvalNode(std::int64_t depth, std::int64_t base,
                     const Interval& range) const;

  /// Table-free reference version of EvalNode (always recurses).
  NodeState EvalNodeUnmemoized(std::int64_t depth, std::int64_t base,
                               const Interval& range) const;

  StrategyKind kind_ = StrategyKind::kHBar;
  std::int64_t width_ = 0;
  std::int64_t analyzer_width_ = 0;
  std::int64_t branching_ = 2;
  double epsilon_ = 1.0;
  double sensitivity_ = 0.0;

  // Hierarchical shape tables, indexed by depth (root 0, leaves
  // height-1). "Full" = the subtree's every leaf is real; the at most
  // one partial subtree per depth (the one containing leaf width-1) has
  // its own entry. Inside = workload 1 on all real leaves; outside =
  // workload 0, where alpha = delta = gamma = 0 and only beta (a pure
  // shape property) survives.
  std::int64_t height_ = 0;
  std::vector<std::int64_t> capacity_;  // k^(height-1-depth)
  std::vector<NodeState> full_inside_;
  std::vector<double> full_outside_beta_;
  std::vector<NodeState> partial_inside_;
  std::vector<double> partial_outside_beta_;
  std::vector<bool> partial_exists_;
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_RECURRENCE_ORACLE_H_
