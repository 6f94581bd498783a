// Quadtree over a 2-D grid: the multi-dimensional extension of the H
// query that Appendix B poses as future work.
//
// The grid (padded to a 2^m x 2^m square) is mapped to the leaves of a
// branching-factor-4 TreeLayout through the Morton (Z-order) curve: a
// quadtree node covering a 2^j x 2^j block corresponds exactly to one
// TreeLayout node whose 1-D leaf range is that block's contiguous Morton
// index range. Theorem 3's hierarchical inference therefore applies
// *unchanged* — only the geometry (rectangle decomposition, sensitivity =
// tree height) is new.

#ifndef DPHIST_PAPER_TREE_QUADTREE_H_
#define DPHIST_PAPER_TREE_QUADTREE_H_

#include <cstdint>
#include <vector>

#include "paper/domain/grid.h"
#include "tree/tree_layout.h"

namespace dphist {

/// Interleaves the bits of (row, col) into a Morton index. Requires both
/// coordinates < 2^31.
std::int64_t MortonEncode(std::int64_t row, std::int64_t col);

/// Inverse of MortonEncode.
void MortonDecode(std::int64_t index, std::int64_t* row, std::int64_t* col);

/// Quadtree geometry over a rows x cols grid (padded to a square power
/// of two).
class QuadtreeLayout {
 public:
  /// Builds the quadtree covering at least rows x cols cells.
  QuadtreeLayout(std::int64_t rows, std::int64_t cols);

  /// The underlying k=4 TreeLayout (node ids shared with inference).
  const TreeLayout& tree() const { return tree_; }

  /// Side of the padded square, a power of two.
  std::int64_t side() const { return side_; }

  /// Requested grid shape.
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  /// Tree height (= sensitivity of the quadtree counting query).
  std::int64_t height() const { return tree_.height(); }

  /// Total number of quadtree nodes.
  std::int64_t node_count() const { return tree_.node_count(); }

  /// The square block of cells covered by node v.
  Rect NodeRect(std::int64_t v) const;

  /// Tree leaf id of the cell (row, col) in the padded square.
  std::int64_t LeafNode(std::int64_t row, std::int64_t col) const;

  /// Inverse of LeafNode: the cell of a leaf node.
  void LeafCell(std::int64_t v, std::int64_t* row, std::int64_t* col) const;

  /// Minimal set of disjoint quadtree nodes whose blocks union exactly to
  /// `rect` (which must lie inside the padded square). Worst case
  /// O(side) nodes — the perimeter effect that makes multi-dimensional
  /// hierarchies costlier than 1-D ones.
  std::vector<std::int64_t> DecomposeRect(const Rect& rect) const;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t side_;
  TreeLayout tree_;
};

}  // namespace dphist

#endif  // DPHIST_PAPER_TREE_QUADTREE_H_
