#include "query/hierarchical_query.h"

#include <algorithm>

#include "common/check.h"

namespace dphist {

HierarchicalQuery::HierarchicalQuery(std::int64_t domain_size,
                                     std::int64_t branching)
    : domain_size_(domain_size), tree_(domain_size, branching) {}

std::vector<double> HierarchicalQuery::Evaluate(const Histogram& data) const {
  DPHIST_CHECK_MSG(data.size() == domain_size_,
                   "data domain does not match query domain");
  std::vector<double> answers(
      static_cast<std::size_t>(tree_.node_count()), 0.0);
  // The leaf level is contiguous and in domain order; padding stays zero.
  std::copy(data.counts().begin(), data.counts().end(),
            answers.begin() + tree_.LevelStart(tree_.height() - 1));
  FillInternalCounts(tree_, &answers);
  return answers;
}

void FillInternalCounts(const TreeLayout& tree, std::vector<double>* counts) {
  DPHIST_CHECK(counts != nullptr &&
               counts->size() == static_cast<std::size_t>(tree.node_count()));
  const std::int64_t k = tree.branching();
  double* values = counts->data();
  for (std::int64_t d = tree.height() - 2; d >= 0; --d) {
    double* level = values + tree.LevelStart(d);
    const double* children = values + tree.LevelStart(d + 1);
    const std::int64_t size = tree.LevelSize(d);
    for (std::int64_t i = 0; i < size; ++i) {
      const double* child = children + i * k;
      double sum = 0.0;
      for (std::int64_t c = k - 1; c >= 0; --c) sum += child[c];
      level[i] = sum;
    }
  }
}

}  // namespace dphist
