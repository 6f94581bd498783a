#include "estimators/universal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "inference/hierarchical.h"
#include "inference/nonnegative_pruning.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "query/unit_query.h"
#include "tree/range_decomposition.h"

namespace dphist {
namespace {

double PrefixRangeSum(const std::vector<double>& prefix,
                      const Interval& range) {
  DPHIST_CHECK_MSG(
      range.lo() >= 0 &&
          range.hi() < static_cast<std::int64_t>(prefix.size()) - 1,
      "range outside the estimator's domain");
  return prefix[static_cast<std::size_t>(range.hi()) + 1] -
         prefix[static_cast<std::size_t>(range.lo())];
}

double RoundAnswer(double answer, bool enabled) {
  if (!enabled) return answer;
  return answer <= 0.0 ? 0.0 : std::round(answer);
}

}  // namespace

LTildeEstimator::LTildeEstimator(const Histogram& data,
                                 const UniversalOptions& options, Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers) {
  UnitQuery query(data.size());
  LaplaceMechanism mechanism(options.epsilon);
  leaves_ = mechanism.AnswerQuery(query, data, rng);
  prefix_ = LeafPrefixSums(leaves_);
}

LTildeEstimator::LTildeEstimator(const UniversalOptions& options,
                                 std::vector<double> leaves)
    : round_answers_(options.round_to_nonnegative_integers),
      leaves_(std::move(leaves)) {
  prefix_ = LeafPrefixSums(leaves_);
}

Result<std::unique_ptr<LTildeEstimator>> LTildeEstimator::Restore(
    const UniversalOptions& options, std::vector<double> leaves) {
  if (leaves.empty()) {
    return Status::InvalidArgument("L~ restore needs a non-empty domain");
  }
  return std::unique_ptr<LTildeEstimator>(
      new LTildeEstimator(options, std::move(leaves)));
}

double LTildeEstimator::RangeCount(const Interval& range) const {
  return RoundAnswer(PrefixRangeSum(prefix_, range), round_answers_);
}

void LTildeEstimator::RangeCountsInto(const Interval* ranges,
                                      std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = RoundAnswer(PrefixRangeSum(prefix_, ranges[i]), round_answers_);
  }
}

HTildeEstimator::HTildeEstimator(const Histogram& data,
                                 const UniversalOptions& options, Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers),
      domain_size_(data.size()),
      tree_(data.size(), options.branching) {
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  nodes_ = mechanism.AnswerQuery(query, data, rng);
}

HTildeEstimator::HTildeEstimator(std::int64_t domain_size,
                                 const UniversalOptions& options,
                                 std::vector<double> noisy_nodes)
    : round_answers_(options.round_to_nonnegative_integers),
      domain_size_(domain_size),
      tree_(domain_size, options.branching),
      nodes_(std::move(noisy_nodes)) {
  DPHIST_CHECK_MSG(
      nodes_.size() == static_cast<std::size_t>(tree_.node_count()),
      "noisy node vector does not match the tree");
}

Result<std::unique_ptr<HTildeEstimator>> HTildeEstimator::Restore(
    std::int64_t domain_size, const UniversalOptions& options,
    std::vector<double> noisy_nodes) {
  if (domain_size < 1) {
    return Status::InvalidArgument("H~ restore needs a non-empty domain");
  }
  if (options.branching < 2) {
    return Status::InvalidArgument("branching must be >= 2");
  }
  const TreeLayout tree(domain_size, options.branching);
  if (noisy_nodes.size() != static_cast<std::size_t>(tree.node_count())) {
    return Status::InvalidArgument(
        "persisted H~ node vector does not match the tree");
  }
  return std::make_unique<HTildeEstimator>(domain_size, options,
                                           std::move(noisy_nodes));
}

double HTildeEstimator::RangeCountImpl(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the estimator's domain");
  double total = 0.0;
  ForEachRangeNode(tree_, range, [&](std::int64_t v) {
    total += nodes_[static_cast<std::size_t>(v)];
  });
  return RoundAnswer(total, round_answers_);
}

double HTildeEstimator::RangeCount(const Interval& range) const {
  return RangeCountImpl(range);
}

void HTildeEstimator::RangeCountsInto(const Interval* ranges,
                                      std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) out[i] = RangeCountImpl(ranges[i]);
}

HBarEstimator::HBarEstimator(const Histogram& data,
                             const UniversalOptions& options, Rng* rng)
    : domain_size_(data.size()), tree_(data.size(), options.branching) {
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  nodes_ = mechanism.AnswerQuery(query, data, rng);
  FinishConstruction(options);
}

HBarEstimator::HBarEstimator(std::int64_t domain_size,
                             const UniversalOptions& options,
                             const std::vector<double>& noisy_nodes)
    : domain_size_(domain_size),
      tree_(domain_size, options.branching),
      nodes_(noisy_nodes) {
  FinishConstruction(options);
}

HBarEstimator::HBarEstimator(RestoreTag, std::int64_t domain_size,
                             std::vector<double> final_nodes,
                             std::int64_t branching)
    : domain_size_(domain_size),
      tree_(domain_size, branching),
      nodes_(std::move(final_nodes)) {
  ComputeLeafState();
}

Result<std::unique_ptr<HBarEstimator>> HBarEstimator::Restore(
    std::int64_t domain_size, const UniversalOptions& options,
    std::vector<double> final_nodes) {
  if (domain_size < 1) {
    return Status::InvalidArgument("H-bar restore needs a non-empty domain");
  }
  if (options.branching < 2) {
    return Status::InvalidArgument("branching must be >= 2");
  }
  const TreeLayout tree(domain_size, options.branching);
  if (final_nodes.size() != static_cast<std::size_t>(tree.node_count())) {
    return Status::InvalidArgument(
        "persisted H-bar node vector does not match the tree");
  }
  return std::unique_ptr<HBarEstimator>(
      new HBarEstimator(RestoreTag{}, domain_size, std::move(final_nodes),
                        options.branching));
}

void HBarEstimator::FinishConstruction(const UniversalOptions& options) {
  DPHIST_CHECK_MSG(
      nodes_.size() == static_cast<std::size_t>(tree_.node_count()),
      "noisy node vector does not match the tree");
  // Every pass rewrites nodes_ in place: noisy -> z -> h-bar -> pruned ->
  // rounded.
  nodes_ =
      ConsistentEstimates(tree_, SubtreeEstimates(tree_, std::move(nodes_)));
  if (options.prune_nonpositive_subtrees) {
    nodes_ = PruneNonPositiveSubtrees(tree_, std::move(nodes_));
  }
  if (options.round_to_nonnegative_integers) {
    nodes_ = RoundToNonNegativeIntegers(std::move(nodes_));
  }
  ComputeLeafState();
}

void HBarEstimator::ComputeLeafState() {
  leaves_ = LeafEstimates(tree_, nodes_, domain_size_);

  // Inference makes the tree exactly consistent; pruning and rounding can
  // re-break it. The fast path answers a range as a difference of two
  // leaf prefix sums, which equals the decomposition answer iff every
  // node that could appear in a decomposition agrees with the sum of its
  // leaf descendants. Verify exactly that, node by node against the
  // prefix sums — a per-parent tolerance would let tiny violations
  // compound over a subtree, this per-node check cannot: any range's two
  // answers then differ by at most (decomposition size) * tolerance.
  // Only nodes fully inside the real (unpadded) domain matter: a
  // decomposition of an in-domain range never touches padding.
  double max_abs = 0.0;
  for (double v : nodes_) max_abs = std::max(max_abs, std::abs(v));
  const double tolerance = 1e-9 * std::max(1.0, max_abs);

  // One left-to-right fold of the leaves yields every prefix sum the
  // table would hold, bit for bit. A node's range ends where the fold
  // stands when the node closes, and starts where the previous node of
  // its level closed, so each level keeps one saved boundary sum. Leaf
  // `p` closes its leaf node and every ancestor whose last leaf it is.
  const std::int64_t leaf_depth = tree_.height() - 1;
  std::vector<double> level_start_sum(static_cast<std::size_t>(tree_.height()),
                                      0.0);
  double sum = 0.0;
  consistent_ = true;
  for (std::int64_t p = 0; p < domain_size_ && consistent_; ++p) {
    sum += leaves_[static_cast<std::size_t>(p)];
    std::int64_t depth = leaf_depth;
    std::int64_t index = p;  // the closing node's index in its level
    while (true) {
      double& start = level_start_sum[static_cast<std::size_t>(depth)];
      const double node =
          nodes_[static_cast<std::size_t>(tree_.LevelStart(depth) + index)];
      if (std::abs(node - (sum - start)) > tolerance) {
        consistent_ = false;
        break;
      }
      start = sum;
      if (depth == 0 || (index + 1) % tree_.branching() != 0) break;
      index /= tree_.branching();
      --depth;
    }
  }
  if (consistent_) prefix_ = LeafPrefixSums(leaves_);
}

double HBarEstimator::DecompositionAnswer(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the estimator's domain");
  double total = 0.0;
  ForEachRangeNode(tree_, range, [&](std::int64_t v) {
    total += nodes_[static_cast<std::size_t>(v)];
  });
  return total;
}

double HBarEstimator::RangeCount(const Interval& range) const {
  if (consistent_) {
    DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                     "range outside the estimator's domain");
    return prefix_[static_cast<std::size_t>(range.hi()) + 1] -
           prefix_[static_cast<std::size_t>(range.lo())];
  }
  return DecompositionAnswer(range);
}

void HBarEstimator::RangeCountsInto(const Interval* ranges, std::size_t count,
                                    double* out) const {
  if (consistent_) {
    for (std::size_t i = 0; i < count; ++i) {
      const Interval& q = ranges[i];
      DPHIST_CHECK_MSG(q.lo() >= 0 && q.hi() < domain_size_,
                       "range outside the estimator's domain");
      out[i] = prefix_[static_cast<std::size_t>(q.hi()) + 1] -
               prefix_[static_cast<std::size_t>(q.lo())];
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = DecompositionAnswer(ranges[i]);
  }
}

double HBarEstimator::RangeCountViaDecomposition(const Interval& range) const {
  return DecompositionAnswer(range);
}

}  // namespace dphist
