#include "inference/hierarchical.h"


#include "common/check.h"

namespace dphist {
namespace {

void CheckNodeVector(const TreeLayout& tree,
                     const std::vector<double>& values) {
  DPHIST_CHECK_MSG(
      values.size() == static_cast<std::size_t>(tree.node_count()),
      "noisy vector size must equal the tree's node count");
}

}  // namespace

HierarchicalInferenceResult HierarchicalInference(
    const TreeLayout& tree, const std::vector<double>& noisy) {
  HierarchicalInferenceResult result;
  result.subtree_estimates = SubtreeEstimates(tree, noisy);
  result.node_estimates = ConsistentEstimates(tree, result.subtree_estimates);
  return result;
}

std::vector<double> SubtreeEstimates(const TreeLayout& tree,
                                     std::vector<double> noisy) {
  CheckNodeVector(tree, noisy);
  const std::int64_t k = tree.branching();
  double* z = noisy.data();
  // Leaves keep z[v] = h~[v]. A node at depth d has height l = height - d;
  // alpha multiplies its own noisy count and beta its children's z sum.
  // The weights advance with l as the pass climbs: k_pow is k^(l-1) on
  // entry to each level.
  double k_pow = static_cast<double>(k);
  for (std::int64_t d = tree.height() - 2; d >= 0; --d) {
    const double k_lm1 = k_pow;
    k_pow *= static_cast<double>(k);
    const double denom = k_pow - 1.0;
    const double alpha = (k_pow - k_lm1) / denom;
    const double beta = (k_lm1 - 1.0) / denom;
    double* level = z + tree.LevelStart(d);
    const double* children = z + tree.LevelStart(d + 1);
    const std::int64_t size = tree.LevelSize(d);
    for (std::int64_t i = 0; i < size; ++i) {
      const double* child = children + i * k;
      double child_sum = 0.0;
      for (std::int64_t c = 0; c < k; ++c) child_sum += child[c];
      level[i] = alpha * level[i] + beta * child_sum;
    }
  }
  return noisy;
}

std::vector<double> ConsistentEstimates(
    const TreeLayout& tree, std::vector<double> subtree_estimates) {
  CheckNodeVector(tree, subtree_estimates);
  const std::int64_t k = tree.branching();
  double* h = subtree_estimates.data();
  // h[root] = z[root]. Levels descend, so a parent already holds h when
  // its children, still holding z, receive its correction.
  for (std::int64_t d = 0; d + 1 < tree.height(); ++d) {
    const double* level = h + tree.LevelStart(d);
    double* children = h + tree.LevelStart(d + 1);
    const std::int64_t size = tree.LevelSize(d);
    for (std::int64_t i = 0; i < size; ++i) {
      double* child = children + i * k;
      double child_z_sum = 0.0;
      for (std::int64_t c = 0; c < k; ++c) child_z_sum += child[c];
      const double adjustment =
          (level[i] - child_z_sum) / static_cast<double>(k);
      for (std::int64_t c = 0; c < k; ++c) child[c] += adjustment;
    }
  }
  return subtree_estimates;
}

std::vector<double> LeafEstimates(const TreeLayout& tree,
                                  const std::vector<double>& node_estimates,
                                  std::int64_t domain_size) {
  DPHIST_CHECK(node_estimates.size() ==
               static_cast<std::size_t>(tree.node_count()));
  DPHIST_CHECK(domain_size >= 1 && domain_size <= tree.leaf_count());
  const auto leaves =
      node_estimates.begin() + tree.LevelStart(tree.height() - 1);
  return std::vector<double>(leaves, leaves + domain_size);
}

}  // namespace dphist
