#include "inference/nonnegative_pruning.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dphist {

std::vector<double> PruneNonPositiveSubtrees(
    const TreeLayout& tree, std::vector<double> node_estimates) {
  DPHIST_CHECK(node_estimates.size() ==
               static_cast<std::size_t>(tree.node_count()));
  const std::int64_t k = tree.branching();
  double* values = node_estimates.data();
  // Levels descend, so a parent is final before its children are
  // visited. A pruned parent holds +0.0 and a kept one is not <= 0, so
  // the parent's own value is its "pruned" flag. Each child level is
  // first clamped as a whole (a branch-free loop over contiguous
  // values), then the children of pruned parents are zeroed.
  if (values[0] <= 0.0) values[0] = 0.0;
  for (std::int64_t d = 0; d + 1 < tree.height(); ++d) {
    const double* level = values + tree.LevelStart(d);
    double* children = values + tree.LevelStart(d + 1);
    const std::int64_t child_count = tree.LevelSize(d + 1);
    for (std::int64_t j = 0; j < child_count; ++j) {
      children[j] = children[j] <= 0.0 ? 0.0 : children[j];
    }
    const std::int64_t size = tree.LevelSize(d);
    for (std::int64_t i = 0; i < size; ++i) {
      if (level[i] <= 0.0) std::fill_n(children + i * k, k, 0.0);
    }
  }
  return node_estimates;
}

std::vector<double> RoundToNonNegativeIntegers(std::vector<double> values) {
  for (double& v : values) v = v <= 0.0 ? 0.0 : std::round(v);
  return values;
}

}  // namespace dphist
