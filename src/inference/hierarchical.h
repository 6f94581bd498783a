// Hierarchical constrained inference: Theorem 3's two-pass recurrence.
//
// Given the noisy tree counts h~ = H~(I), the minimum-L2 vector satisfying
// every "parent equals sum of children" constraint is computed in two
// linear scans of the tree:
//
//  Bottom-up (the z pass): z[v] is the best linear unbiased estimate of
//  node v's count using only v's subtree. For a leaf z[v] = h~[v]; for an
//  internal node at height l (leaves have height 1),
//
//      z[v] = (k^l - k^(l-1)) / (k^l - 1) * h~[v]
//           + (k^(l-1) - 1)   / (k^l - 1) * sum_{u in succ(v)} z[u],
//
//  an inverse-variance weighting of the node's own noisy count against the
//  sum of its children's subtree estimates.
//
//  Top-down (the h pass): h[root] = z[root]; descending, any mismatch
//  between h[u] and the sum of its children's z values is split equally
//  among the k children:
//
//      h[v] = z[v] + (1/k) * (h[u] - sum_{w in succ(u)} z[w]).
//
// The result is the least-squares (OLS) estimate of every node count
// (Theorem 4: minimal MSE among linear unbiased estimators), computed in
// O(m) instead of the O(n^3) of a dense solve.
//
// Both passes run level by level over a BFS node vector: the children of
// the i-th node at depth d are the k consecutive nodes starting at
// LevelStart(d + 1) + i * k. Each pass rewrites its input vector in
// place, so a caller that owns the noisy counts infers with no scratch.

#ifndef DPHIST_INFERENCE_HIERARCHICAL_H_
#define DPHIST_INFERENCE_HIERARCHICAL_H_

#include <cstdint>
#include <vector>

#include "tree/tree_layout.h"

namespace dphist {

/// Output of hierarchical inference: consistent estimates for every node.
struct HierarchicalInferenceResult {
  /// h-bar for every tree node, BFS order; parent = sum of children holds
  /// exactly (to floating-point round-off).
  std::vector<double> node_estimates;
  /// The intermediate z estimates (exposed for tests of the Theorem 3
  /// identities and for the root-variance analysis).
  std::vector<double> subtree_estimates;
};

/// Runs the two-pass inference. `noisy` must have tree.node_count()
/// entries in BFS order.
HierarchicalInferenceResult HierarchicalInference(
    const TreeLayout& tree, const std::vector<double>& noisy);

/// The bottom-up z pass alone: takes the noisy counts h~ (BFS order,
/// tree.node_count() entries) and returns the subtree estimates z in the
/// same vector. Children are summed first to last. Pass an rvalue to
/// infer without a copy.
std::vector<double> SubtreeEstimates(const TreeLayout& tree,
                                     std::vector<double> noisy);

/// The top-down h pass alone: takes the z vector and returns h-bar in the
/// same vector, adding each parent's correction to its children's z.
std::vector<double> ConsistentEstimates(const TreeLayout& tree,
                                        std::vector<double> subtree_estimates);

/// Copies the first `domain_size` leaf estimates (dropping padding) out of
/// the contiguous leaf level of a node-estimate vector.
std::vector<double> LeafEstimates(const TreeLayout& tree,
                                  const std::vector<double>& node_estimates,
                                  std::int64_t domain_size);

}  // namespace dphist

#endif  // DPHIST_INFERENCE_HIERARCHICAL_H_
