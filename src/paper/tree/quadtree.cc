#include "paper/tree/quadtree.h"

#include "common/check.h"

namespace dphist {
namespace {

std::int64_t SpreadBits(std::int64_t v) {
  // Interleave zeros between the low 31 bits of v.
  std::uint64_t x = static_cast<std::uint64_t>(v) & 0x7fffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return static_cast<std::int64_t>(x);
}

std::int64_t CompactBits(std::int64_t v) {
  std::uint64_t x = static_cast<std::uint64_t>(v) & 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffULL;
  x = (x | (x >> 16)) & 0x00000000ffffffffULL;
  return static_cast<std::int64_t>(x);
}

}  // namespace

std::int64_t MortonEncode(std::int64_t row, std::int64_t col) {
  DPHIST_CHECK(row >= 0 && col >= 0);
  DPHIST_CHECK(row < (std::int64_t{1} << 31) &&
               col < (std::int64_t{1} << 31));
  return (SpreadBits(row) << 1) | SpreadBits(col);
}

void MortonDecode(std::int64_t index, std::int64_t* row, std::int64_t* col) {
  DPHIST_CHECK(index >= 0 && row != nullptr && col != nullptr);
  *row = CompactBits(index >> 1);
  *col = CompactBits(index);
}

QuadtreeLayout::QuadtreeLayout(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      side_([&] {
        DPHIST_CHECK_MSG(rows > 0 && cols > 0, "grid must be non-empty");
        std::int64_t side = 1;
        while (side < rows || side < cols) side *= 2;
        return side;
      }()),
      tree_(side_ * side_, 4) {
  // A perfect k=4 tree over side^2 Morton-ordered leaves: every node's
  // 1-D leaf interval is exactly one 2^j x 2^j block.
  DPHIST_CHECK(tree_.leaf_count() == side_ * side_);
}

Rect QuadtreeLayout::NodeRect(std::int64_t v) const {
  Interval span = tree_.NodeRange(v);
  // Block side: sqrt of the number of leaves under the node.
  std::int64_t leaves = span.Length();
  std::int64_t block_side = 1;
  while (block_side * block_side < leaves) block_side *= 2;
  std::int64_t row0 = 0, col0 = 0;
  MortonDecode(span.lo(), &row0, &col0);
  return Rect(row0, row0 + block_side - 1, col0, col0 + block_side - 1);
}

std::int64_t QuadtreeLayout::LeafNode(std::int64_t row,
                                      std::int64_t col) const {
  DPHIST_CHECK(row >= 0 && row < side_ && col >= 0 && col < side_);
  return tree_.LeafNode(MortonEncode(row, col));
}

void QuadtreeLayout::LeafCell(std::int64_t v, std::int64_t* row,
                              std::int64_t* col) const {
  MortonDecode(tree_.LeafPosition(v), row, col);
}

namespace {

void DecomposeRectInto(const QuadtreeLayout& quad, std::int64_t node,
                       const Rect& rect, std::vector<std::int64_t>* out) {
  Rect covered = quad.NodeRect(node);
  if (!covered.Overlaps(rect)) return;
  if (rect.Covers(covered)) {
    out->push_back(node);
    return;
  }
  DPHIST_DCHECK(!quad.tree().IsLeaf(node));
  std::int64_t first = quad.tree().FirstChild(node);
  for (std::int64_t c = 0; c < 4; ++c) {
    DecomposeRectInto(quad, first + c, rect, out);
  }
}

}  // namespace

std::vector<std::int64_t> QuadtreeLayout::DecomposeRect(
    const Rect& rect) const {
  DPHIST_CHECK_MSG(rect.row_lo() >= 0 && rect.row_hi() < side_ &&
                       rect.col_lo() >= 0 && rect.col_hi() < side_,
                   "rect outside the (padded) grid");
  std::vector<std::int64_t> out;
  DecomposeRectInto(*this, 0, rect, &out);
  return out;
}

}  // namespace dphist
