// The hierarchical query sequence H (Section 4): interval counts for every
// node of a k-ary tree over the domain, in BFS order.
//
// Sensitivity is the tree height ell (Proposition 4): one record lies in
// exactly one leaf interval and in each ancestor interval, so adding or
// removing it changes exactly ell counts by one each.

#ifndef DPHIST_QUERY_HIERARCHICAL_QUERY_H_
#define DPHIST_QUERY_HIERARCHICAL_QUERY_H_

#include <vector>

#include "query/query_sequence.h"
#include "tree/tree_layout.h"

namespace dphist {

/// The L1 sensitivity of H over `tree`: its height ell (Proposition 4).
/// The one formula for H~ and H-bar — their estimators (through
/// HierarchicalQuery::Sensitivity), the planner's RecurrenceOracle and
/// VarianceOracle's H~ case all call it.
inline double HierarchicalSensitivity(const TreeLayout& tree) {
  return static_cast<double>(tree.height());
}

/// Tree-of-intervals query; answers are one count per tree node.
class HierarchicalQuery : public QuerySequence {
 public:
  /// Builds H over a domain of `domain_size` positions with branching
  /// factor `branching` (>= 2). The domain is padded inside the tree.
  HierarchicalQuery(std::int64_t domain_size, std::int64_t branching);

  /// The tree geometry shared with inference and the range engine.
  const TreeLayout& tree() const { return tree_; }

  /// The caller's domain size (pre-padding).
  std::int64_t domain_size() const { return domain_size_; }

  std::int64_t size() const override { return tree_.node_count(); }

  /// Counts for every node: leaf counts are the data counts (zero in the
  /// padding), internal counts are exact sums of their children.
  std::vector<double> Evaluate(const Histogram& data) const override;

  double Sensitivity() const override {
    return HierarchicalSensitivity(tree_);
  }

  std::string Name() const override { return "H"; }

 private:
  std::int64_t domain_size_;
  TreeLayout tree_;
};

/// Sets every internal node of `counts` (BFS order over `tree`) to the sum
/// of its children, deepest level first, so each node ends up holding the
/// total of its leaves. The leaf level must already hold the leaf counts.
/// Children are added last to first, starting from 0.0.
void FillInternalCounts(const TreeLayout& tree, std::vector<double>* counts);

}  // namespace dphist

#endif  // DPHIST_QUERY_HIERARCHICAL_QUERY_H_
