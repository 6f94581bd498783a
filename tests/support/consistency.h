// Consistency audit for hierarchical node vectors (BFS order over a
// TreeLayout): the tests' check that constrained inference produced a
// tree whose every parent equals the sum of its children.

#ifndef DPHIST_TESTS_SUPPORT_CONSISTENCY_H_
#define DPHIST_TESTS_SUPPORT_CONSISTENCY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "tree/tree_layout.h"

namespace dphist {

/// Maximum violation of the parent-equals-children-sum constraints; zero
/// (up to round-off) on any HierarchicalInference output.
inline double MaxConsistencyViolation(const TreeLayout& tree,
                                      const std::vector<double>& node_values) {
  DPHIST_CHECK(node_values.size() ==
               static_cast<std::size_t>(tree.node_count()));
  const std::int64_t k = tree.branching();
  const double* values = node_values.data();
  double worst = 0.0;
  for (std::int64_t d = 0; d + 1 < tree.height(); ++d) {
    const double* level = values + tree.LevelStart(d);
    const double* children = values + tree.LevelStart(d + 1);
    const std::int64_t size = tree.LevelSize(d);
    for (std::int64_t i = 0; i < size; ++i) {
      const double* child = children + i * k;
      double child_sum = 0.0;
      for (std::int64_t c = 0; c < k; ++c) child_sum += child[c];
      worst = std::max(worst, std::abs(level[i] - child_sum));
    }
  }
  return worst;
}

}  // namespace dphist

#endif  // DPHIST_TESTS_SUPPORT_CONSISTENCY_H_
