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

/// H-bar's post-processing of H~'s noisy nodes, in their own buffer:
/// Theorem 3's inference, then the configured pruning and rounding.
std::vector<double> InferHBarNodes(const TreeLayout& tree,
                                   std::vector<double> noisy,
                                   const UniversalOptions& options) {
  DPHIST_CHECK_MSG(noisy.size() == static_cast<std::size_t>(tree.node_count()),
                   "noisy node vector does not match the tree");
  // Every pass rewrites the one buffer in place: noisy -> z -> h-bar ->
  // pruned -> rounded.
  std::vector<double> nodes =
      ConsistentEstimates(tree, SubtreeEstimates(tree, std::move(noisy)));
  if (options.prune_nonpositive_subtrees) {
    nodes = PruneNonPositiveSubtrees(tree, std::move(nodes));
  }
  if (options.round_to_nonnegative_integers) {
    nodes = RoundToNonNegativeIntegers(std::move(nodes));
  }
  return nodes;
}

}  // namespace

std::vector<double> DrawLTildeLeaves(const Histogram& data, double epsilon,
                                     Rng* rng) {
  UnitQuery query(data.size());
  LaplaceMechanism mechanism(epsilon);
  return mechanism.AnswerQuery(query, data, rng);
}

std::vector<double> DrawHTildeNodes(const Histogram& data,
                                    const UniversalOptions& options,
                                    Rng* rng) {
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  return mechanism.AnswerQuery(query, data, rng);
}

std::vector<double> DrawHBarNodes(const Histogram& data,
                                  const UniversalOptions& options, Rng* rng) {
  return InferHBarNodes(TreeLayout(data.size(), options.branching),
                        DrawHTildeNodes(data, options, rng), options);
}

double DecompositionSum(const TreeLayout& tree,
                        const std::vector<double>& nodes,
                        const Interval& range) {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < tree.requested_leaf_count(),
                   "range outside the estimator's domain");
  double total = 0.0;
  ForEachRangeNode(tree, range, [&](std::int64_t v) {
    total += nodes[static_cast<std::size_t>(v)];
  });
  return total;
}

bool IsPrefixConsistent(const TreeLayout& tree,
                        const std::vector<double>& nodes) {
  // The prefix path answers a range as a difference of two leaf prefix
  // sums, which equals the decomposition answer iff every node that
  // could appear in a decomposition agrees with the sum of its leaf
  // descendants. Verify exactly that, node by node against the prefix
  // sums — a per-parent tolerance would let tiny violations compound
  // over a subtree, this per-node check cannot: any range's two answers
  // then differ by at most (decomposition size) * tolerance. Only nodes
  // fully inside the real (unpadded) domain matter: a decomposition of
  // an in-domain range never touches padding.
  double max_abs = 0.0;
  for (double v : nodes) max_abs = std::max(max_abs, std::abs(v));
  const double tolerance = 1e-9 * std::max(1.0, max_abs);

  // One left-to-right fold of the leaves yields every prefix sum the
  // table would hold, bit for bit. A node's range ends where the fold
  // stands when the node closes, and starts where the previous node of
  // its level closed, so each level keeps one saved boundary sum. Leaf
  // `p` closes its leaf node and every ancestor whose last leaf it is.
  const double* leaves = LeafLevel(tree, nodes);
  const std::int64_t leaf_depth = tree.height() - 1;
  std::vector<double> level_start_sum(static_cast<std::size_t>(tree.height()),
                                      0.0);
  double sum = 0.0;
  for (std::int64_t p = 0; p < tree.requested_leaf_count(); ++p) {
    sum += leaves[p];
    std::int64_t depth = leaf_depth;
    std::int64_t index = p;  // the closing node's index in its level
    while (true) {
      double& start = level_start_sum[static_cast<std::size_t>(depth)];
      const double node =
          nodes[static_cast<std::size_t>(tree.LevelStart(depth) + index)];
      if (std::abs(node - (sum - start)) > tolerance) return false;
      start = sum;
      if (depth == 0 || (index + 1) % tree.branching() != 0) break;
      index /= tree.branching();
      --depth;
    }
  }
  return true;
}

LTildeEstimator::LTildeEstimator(const Histogram& data,
                                 const UniversalOptions& options, Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers),
      leaves_(DrawLTildeLeaves(data, options.epsilon, rng)),
      prefix_(LeafPrefixSums(leaves_)) {}

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
      tree_(data.size(), options.branching),
      nodes_(DrawHTildeNodes(data, options, rng)) {}

HTildeEstimator::HTildeEstimator(std::int64_t domain_size,
                                 const UniversalOptions& options,
                                 std::vector<double> noisy_nodes)
    : round_answers_(options.round_to_nonnegative_integers),
      tree_(domain_size, options.branching),
      nodes_(std::move(noisy_nodes)) {
  DPHIST_CHECK_MSG(
      nodes_.size() == static_cast<std::size_t>(tree_.node_count()),
      "noisy node vector does not match the tree");
}

double HTildeEstimator::RangeCount(const Interval& range) const {
  return RoundAnswer(DecompositionSum(tree_, nodes_, range), round_answers_);
}

void HTildeEstimator::RangeCountsInto(const Interval* ranges,
                                      std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] =
        RoundAnswer(DecompositionSum(tree_, nodes_, ranges[i]), round_answers_);
  }
}

HBarEstimator::HBarEstimator(const Histogram& data,
                             const UniversalOptions& options, Rng* rng)
    : tree_(data.size(), options.branching),
      nodes_(DrawHBarNodes(data, options, rng)) {
  ComputeLeafState();
}

HBarEstimator::HBarEstimator(std::int64_t domain_size,
                             const UniversalOptions& options,
                             const std::vector<double>& noisy_nodes)
    : tree_(domain_size, options.branching),
      nodes_(InferHBarNodes(tree_, noisy_nodes, options)) {
  ComputeLeafState();
}

void HBarEstimator::ComputeLeafState() {
  leaves_ = LeafEstimates(tree_, nodes_, tree_.requested_leaf_count());
  consistent_ = IsPrefixConsistent(tree_, nodes_);
  if (consistent_) prefix_ = LeafPrefixSums(leaves_);
}

double HBarEstimator::RangeCount(const Interval& range) const {
  if (consistent_) return PrefixRangeSum(prefix_, range);
  return DecompositionSum(tree_, nodes_, range);
}

void HBarEstimator::RangeCountsInto(const Interval* ranges, std::size_t count,
                                    double* out) const {
  if (consistent_) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = PrefixRangeSum(prefix_, ranges[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = DecompositionSum(tree_, nodes_, ranges[i]);
  }
}

double HBarEstimator::RangeCountViaDecomposition(const Interval& range) const {
  return DecompositionSum(tree_, nodes_, range);
}

}  // namespace dphist
