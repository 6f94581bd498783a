#include "paper/estimators/universal2d.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/laplace.h"
#include "inference/hierarchical.h"
#include "inference/nonnegative_pruning.h"
#include "query/hierarchical_query.h"

namespace dphist {
namespace {

double RoundAnswer(double answer, bool enabled) {
  if (!enabled) return answer;
  return answer <= 0.0 ? 0.0 : std::round(answer);
}

Status ValidateGridBuild(const GridHistogram& data,
                         const Universal2dOptions& options, const Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("2-D estimator needs an RNG");
  }
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (data.rows() < 1 || data.cols() < 1) {
    return Status::InvalidArgument("2-D estimator needs a non-empty grid");
  }
  return Status::Ok();
}

}  // namespace

std::vector<double> EvaluateQuadtreeCounts(const QuadtreeLayout& quad,
                                           const GridHistogram& data) {
  DPHIST_CHECK_MSG(data.rows() <= quad.side() && data.cols() <= quad.side(),
                   "grid does not fit the quadtree");
  std::vector<double> counts(static_cast<std::size_t>(quad.node_count()),
                             0.0);
  for (std::int64_t r = 0; r < data.rows(); ++r) {
    for (std::int64_t c = 0; c < data.cols(); ++c) {
      counts[static_cast<std::size_t>(quad.LeafNode(r, c))] = data.At(r, c);
    }
  }
  FillInternalCounts(quad.tree(), &counts);
  return counts;
}

L2dEstimator::L2dEstimator(const GridHistogram& data,
                           const Universal2dOptions& options, Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers),
      noisy_(data.rows(), data.cols(), data.attribute()) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK_MSG(options.epsilon > 0.0, "epsilon must be positive");
  LaplaceDistribution noise(1.0 / options.epsilon);
  for (std::int64_t r = 0; r < data.rows(); ++r) {
    for (std::int64_t c = 0; c < data.cols(); ++c) {
      noisy_.Set(r, c, data.At(r, c) + noise.Sample(rng));
    }
  }
}

Result<std::unique_ptr<L2dEstimator>> L2dEstimator::Create(
    const GridHistogram& data, const Universal2dOptions& options, Rng* rng) {
  Status valid = ValidateGridBuild(data, options, rng);
  if (!valid.ok()) return valid;
  return std::make_unique<L2dEstimator>(data, options, rng);
}

double L2dEstimator::RectCount(const Rect& rect) const {
  return RoundAnswer(noisy_.Count(rect), round_answers_);
}

Quad2dTildeEstimator::Quad2dTildeEstimator(const GridHistogram& data,
                                           const Universal2dOptions& options,
                                           Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers),
      rows_(data.rows()),
      cols_(data.cols()),
      quad_(data.rows(), data.cols()) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK_MSG(options.epsilon > 0.0, "epsilon must be positive");
  nodes_ = EvaluateQuadtreeCounts(quad_, data);
  LaplaceDistribution noise(static_cast<double>(quad_.height()) /
                            options.epsilon);
  noise.AddSamplesTo(nodes_.data(), nodes_.size(), rng);
}

Result<std::unique_ptr<Quad2dTildeEstimator>> Quad2dTildeEstimator::Create(
    const GridHistogram& data, const Universal2dOptions& options, Rng* rng) {
  Status valid = ValidateGridBuild(data, options, rng);
  if (!valid.ok()) return valid;
  return std::make_unique<Quad2dTildeEstimator>(data, options, rng);
}

double Quad2dTildeEstimator::RectCount(const Rect& rect) const {
  DPHIST_CHECK_MSG(rect.row_hi() < rows_ && rect.col_hi() < cols_,
                   "rect outside the estimator's grid");
  double total = 0.0;
  for (std::int64_t v : quad_.DecomposeRect(rect)) {
    total += nodes_[static_cast<std::size_t>(v)];
  }
  return RoundAnswer(total, round_answers_);
}

Quad2dBarEstimator::Quad2dBarEstimator(const GridHistogram& data,
                                       const Universal2dOptions& options,
                                       Rng* rng)
    : rows_(data.rows()),
      cols_(data.cols()),
      quad_(data.rows(), data.cols()) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK_MSG(options.epsilon > 0.0, "epsilon must be positive");
  nodes_ = EvaluateQuadtreeCounts(quad_, data);
  LaplaceDistribution noise(static_cast<double>(quad_.height()) /
                            options.epsilon);
  noise.AddSamplesTo(nodes_.data(), nodes_.size(), rng);
  FinishConstruction(options);
}

Quad2dBarEstimator::Quad2dBarEstimator(std::int64_t rows, std::int64_t cols,
                                       const Universal2dOptions& options,
                                       const std::vector<double>& noisy_nodes)
    : rows_(rows), cols_(cols), quad_(rows, cols), nodes_(noisy_nodes) {
  FinishConstruction(options);
}

void Quad2dBarEstimator::FinishConstruction(
    const Universal2dOptions& options) {
  DPHIST_CHECK_MSG(nodes_.size() ==
                       static_cast<std::size_t>(quad_.node_count()),
                   "noisy node vector does not match the quadtree");
  const TreeLayout& tree = quad_.tree();
  nodes_ =
      ConsistentEstimates(tree, SubtreeEstimates(tree, std::move(nodes_)));
  if (options.prune_nonpositive_subtrees) {
    nodes_ = PruneNonPositiveSubtrees(tree, std::move(nodes_));
  }
  if (options.round_to_nonnegative_integers) {
    nodes_ = RoundToNonNegativeIntegers(std::move(nodes_));
  }
}

Result<std::unique_ptr<Quad2dBarEstimator>> Quad2dBarEstimator::Create(
    const GridHistogram& data, const Universal2dOptions& options, Rng* rng) {
  Status valid = ValidateGridBuild(data, options, rng);
  if (!valid.ok()) return valid;
  return std::make_unique<Quad2dBarEstimator>(data, options, rng);
}

double Quad2dBarEstimator::RectCount(const Rect& rect) const {
  DPHIST_CHECK_MSG(rect.row_hi() < rows_ && rect.col_hi() < cols_,
                   "rect outside the estimator's grid");
  double total = 0.0;
  for (std::int64_t v : quad_.DecomposeRect(rect)) {
    total += nodes_[static_cast<std::size_t>(v)];
  }
  return total;
}

}  // namespace dphist
