// Two-dimensional universal histograms — Appendix B's "multi-dimensional
// range queries" future-work item, realized with a quadtree.
//
// The estimator trio mirrors the 1-D case exactly:
//   L2d    : per-cell Laplace noise (sensitivity 1); rectangles answered
//            by summation — error grows with the rectangle's area.
//   Q2d~   : per-quadtree-node Laplace noise (sensitivity = tree height);
//            rectangles answered by the minimal quadtree decomposition —
//            error grows with the rectangle's *perimeter* profile.
//   Q2d-bar: Q2d~'s draw post-processed with Theorem 3's inference (the
//            k=4 tree needs no new math), Section 4.2 pruning, and
//            rounding; rectangles answered from the inferred nodes.

#ifndef DPHIST_ESTIMATORS_UNIVERSAL2D_H_
#define DPHIST_ESTIMATORS_UNIVERSAL2D_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "domain/grid.h"
#include "tree/quadtree.h"

namespace dphist {

/// Shared knobs for the 2-D estimators (mirrors UniversalOptions).
struct Universal2dOptions {
  double epsilon = 1.0;
  /// Round final rectangle answers (L2d/Q2d~) or inferred node estimates
  /// (Q2d-bar) to non-negative integers.
  bool round_to_nonnegative_integers = true;
  /// Zero out non-positive quadtree subtrees after inference (Q2d-bar).
  bool prune_nonpositive_subtrees = true;
};

/// Common interface for 2-D range-count estimators.
class RectCountEstimator {
 public:
  virtual ~RectCountEstimator() = default;
  /// Estimated count inside `rect`.
  virtual double RectCount(const Rect& rect) const = 0;
  /// Short display name.
  virtual std::string Name() const = 0;
};

/// Evaluates the quadtree counting query: one exact count per node.
std::vector<double> EvaluateQuadtreeCounts(const QuadtreeLayout& quad,
                                           const GridHistogram& data);

/// The flat per-cell strategy.
class L2dEstimator : public RectCountEstimator {
 public:
  L2dEstimator(const GridHistogram& data, const Universal2dOptions& options,
               Rng* rng);

  /// Validating construction for serving paths: invalid options or a
  /// missing RNG become a Status instead of aborting the process.
  static Result<std::unique_ptr<L2dEstimator>> Create(
      const GridHistogram& data, const Universal2dOptions& options, Rng* rng);

  double RectCount(const Rect& rect) const override;
  std::string Name() const override { return "L2d~"; }

 private:
  bool round_answers_;
  GridHistogram noisy_;
};

/// The raw quadtree strategy.
class Quad2dTildeEstimator : public RectCountEstimator {
 public:
  Quad2dTildeEstimator(const GridHistogram& data,
                       const Universal2dOptions& options, Rng* rng);

  /// Validating construction (see L2dEstimator::Create).
  static Result<std::unique_ptr<Quad2dTildeEstimator>> Create(
      const GridHistogram& data, const Universal2dOptions& options, Rng* rng);

  double RectCount(const Rect& rect) const override;
  std::string Name() const override { return "Q2d~"; }

  const QuadtreeLayout& quadtree() const { return quad_; }
  /// Raw noisy per-node answers.
  const std::vector<double>& node_answers() const { return nodes_; }

 private:
  bool round_answers_;
  std::int64_t rows_;
  std::int64_t cols_;
  QuadtreeLayout quad_;
  std::vector<double> nodes_;
};

/// The quadtree strategy with constrained inference.
class Quad2dBarEstimator : public RectCountEstimator {
 public:
  Quad2dBarEstimator(const GridHistogram& data,
                     const Universal2dOptions& options, Rng* rng);

  /// Builds from an existing noisy node vector (shared-draw comparisons).
  Quad2dBarEstimator(std::int64_t rows, std::int64_t cols,
                     const Universal2dOptions& options,
                     const std::vector<double>& noisy_nodes);

  /// Validating construction (see L2dEstimator::Create).
  static Result<std::unique_ptr<Quad2dBarEstimator>> Create(
      const GridHistogram& data, const Universal2dOptions& options, Rng* rng);

  double RectCount(const Rect& rect) const override;
  std::string Name() const override { return "Q2d-bar"; }

  const QuadtreeLayout& quadtree() const { return quad_; }
  /// Final per-node estimates (inferred, pruned, rounded per options).
  const std::vector<double>& node_estimates() const { return nodes_; }

 private:
  /// Runs inference and the configured post-processing on the noisy
  /// counts in nodes_.
  void FinishConstruction(const Universal2dOptions& options);

  std::int64_t rows_;
  std::int64_t cols_;
  QuadtreeLayout quad_;
  std::vector<double> nodes_;
};

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_UNIVERSAL2D_H_
