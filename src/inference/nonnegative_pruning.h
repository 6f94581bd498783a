// Non-negativity pruning (Section 4.2's sparsity heuristic).
//
// After hierarchical inference, any subtree whose root estimate is <= 0 is
// set to zero wholesale. The paper motivates this with sparse domains:
// H-bar sees noisy observations at *higher* levels of the tree, so it can
// recognize an empty region from one near-zero ancestor count where L~
// would assign spurious positive counts to half the leaves. Incorporating
// true non-negativity constraints into the inference is flagged as future
// work in the paper; this is deliberately the paper's simple heuristic.

#ifndef DPHIST_INFERENCE_NONNEGATIVE_PRUNING_H_
#define DPHIST_INFERENCE_NONNEGATIVE_PRUNING_H_

#include <vector>

#include "tree/tree_layout.h"

namespace dphist {

/// Returns `node_estimates` (BFS order) with every subtree rooted at a
/// node with estimate <= 0 set to +0.0: the root of the subtree and all of
/// its descendants. Works in the vector it is given: pass an rvalue to
/// prune without a copy.
std::vector<double> PruneNonPositiveSubtrees(
    const TreeLayout& tree, std::vector<double> node_estimates);

/// Componentwise round to the nearest non-negative integer — the
/// integrality/non-negativity post-processing Section 5.2 applies to every
/// estimator before measuring error. Works in the vector it is given.
std::vector<double> RoundToNonNegativeIntegers(std::vector<double> values);

}  // namespace dphist

#endif  // DPHIST_INFERENCE_NONNEGATIVE_PRUNING_H_
