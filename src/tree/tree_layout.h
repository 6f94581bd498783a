// Implicit perfect k-ary interval tree (the tree T of Section 4).
//
// Each node corresponds to an interval of the domain; the root covers
// everything and each node has k children splitting its interval into k
// equal parts; leaves are unit intervals. Nodes are numbered 0..m-1 in
// BFS (breadth-first) order — exactly the order the paper uses to turn the
// tree into the query sequence H. The tree is "implicit": parent/child/
// interval relations are arithmetic on node ids, no pointers.
//
// Domains whose size is not a power of k are padded up to the next power;
// padded leaf positions simply hold zero counts, which leaves every range
// sum over the original domain unchanged.

#ifndef DPHIST_TREE_TREE_LAYOUT_H_
#define DPHIST_TREE_TREE_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "domain/interval.h"

namespace dphist {

/// Geometry of a perfect k-ary tree over a (padded) domain.
class TreeLayout {
 public:
  /// Builds the tree over a domain of `leaf_count` positions (>= 1) with
  /// branching factor `branching` (>= 2). The domain is padded to the next
  /// power of `branching`.
  TreeLayout(std::int64_t leaf_count, std::int64_t branching);

  /// Branching factor k.
  std::int64_t branching() const { return branching_; }

  /// Height ell: the number of nodes on a root-to-leaf path (the paper's
  /// convention, Section 4: ell = log_k n + 1).
  std::int64_t height() const { return height_; }

  /// Padded leaf count, k^(height-1).
  std::int64_t leaf_count() const { return leaf_count_; }

  /// The caller's original (pre-padding) domain size.
  std::int64_t requested_leaf_count() const { return requested_leaf_count_; }

  /// Total node count m = (k^ell - 1) / (k - 1).
  std::int64_t node_count() const { return node_count_; }

  /// True for node 0.
  bool IsRoot(std::int64_t v) const { return v == 0; }

  /// True iff v is on the leaf level.
  bool IsLeaf(std::int64_t v) const;

  /// Parent id. Requires v != root.
  std::int64_t Parent(std::int64_t v) const;

  /// Id of the first child. Requires !IsLeaf(v).
  std::int64_t FirstChild(std::int64_t v) const;

  /// The k child ids of v. Requires !IsLeaf(v).
  std::vector<std::int64_t> Children(std::int64_t v) const;

  /// Depth of v: root is 0, leaves are height-1.
  std::int64_t Depth(std::int64_t v) const;

  /// First node id at `depth` (BFS order).
  std::int64_t LevelStart(std::int64_t depth) const;

  /// Number of nodes at `depth`, k^depth.
  std::int64_t LevelSize(std::int64_t depth) const;

  /// Leaf positions covered by node v, as an interval over the padded
  /// domain [0, leaf_count).
  Interval NodeRange(std::int64_t v) const;

  /// Node id of the leaf at domain position `position`.
  std::int64_t LeafNode(std::int64_t position) const;

  /// Domain position of leaf node v. Requires IsLeaf(v).
  std::int64_t LeafPosition(std::int64_t v) const;

 private:
  std::int64_t branching_;
  std::int64_t requested_leaf_count_;
  std::int64_t leaf_count_;
  std::int64_t height_;
  std::int64_t node_count_;
  /// level_start_[d] = id of the first node at depth d; has height_+1
  /// entries, the last being node_count_.
  std::vector<std::int64_t> level_start_;
};

}  // namespace dphist

#endif  // DPHIST_TREE_TREE_LAYOUT_H_
