#include "paper/tree/quadtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace dphist {
namespace {

TEST(MortonTest, KnownEncodings) {
  EXPECT_EQ(MortonEncode(0, 0), 0);
  EXPECT_EQ(MortonEncode(0, 1), 1);
  EXPECT_EQ(MortonEncode(1, 0), 2);
  EXPECT_EQ(MortonEncode(1, 1), 3);
  EXPECT_EQ(MortonEncode(0, 2), 4);
  EXPECT_EQ(MortonEncode(2, 0), 8);
  EXPECT_EQ(MortonEncode(3, 3), 15);
}

TEST(MortonTest, RoundTripsRandomCoordinates) {
  Rng rng(1);
  for (int trial = 0; trial < 1000; ++trial) {
    std::int64_t row = rng.NextInt(0, (1 << 20) - 1);
    std::int64_t col = rng.NextInt(0, (1 << 20) - 1);
    std::int64_t r2, c2;
    MortonDecode(MortonEncode(row, col), &r2, &c2);
    EXPECT_EQ(r2, row);
    EXPECT_EQ(c2, col);
  }
}

TEST(MortonTest, QuadrantBlocksAreContiguous) {
  // All cells of any aligned 2^j x 2^j block form one contiguous Morton
  // range — the property the quadtree mapping relies on.
  for (std::int64_t block_side : {2, 4, 8}) {
    for (std::int64_t base_row = 0; base_row < 16; base_row += block_side) {
      for (std::int64_t base_col = 0; base_col < 16;
           base_col += block_side) {
        std::set<std::int64_t> indices;
        for (std::int64_t r = 0; r < block_side; ++r) {
          for (std::int64_t c = 0; c < block_side; ++c) {
            indices.insert(MortonEncode(base_row + r, base_col + c));
          }
        }
        EXPECT_EQ(*indices.rbegin() - *indices.begin() + 1,
                  static_cast<std::int64_t>(indices.size()))
            << "block at " << base_row << "," << base_col;
      }
    }
  }
}

TEST(QuadtreeLayoutTest, GeometryOfFourByFour) {
  QuadtreeLayout quad(4, 4);
  EXPECT_EQ(quad.side(), 4);
  EXPECT_EQ(quad.height(), 3);        // 16 leaves, k=4 -> 1 + 4 + 16
  EXPECT_EQ(quad.node_count(), 21);
  EXPECT_EQ(quad.NodeRect(0), Rect(0, 3, 0, 3));
}

TEST(QuadtreeLayoutTest, PadsRectangularGrids) {
  QuadtreeLayout quad(5, 3);
  EXPECT_EQ(quad.side(), 8);
  EXPECT_EQ(quad.rows(), 5);
  EXPECT_EQ(quad.cols(), 3);
  EXPECT_EQ(quad.height(), 4);  // 64 leaves
}

TEST(QuadtreeLayoutTest, ChildrenPartitionParentRect) {
  QuadtreeLayout quad(8, 8);
  const TreeLayout& tree = quad.tree();
  for (std::int64_t v = 0; v < quad.node_count(); ++v) {
    if (tree.IsLeaf(v)) continue;
    Rect parent = quad.NodeRect(v);
    std::int64_t child_area = 0;
    for (std::int64_t c : tree.Children(v)) {
      Rect child = quad.NodeRect(c);
      EXPECT_TRUE(parent.Covers(child));
      child_area += child.Area();
    }
    EXPECT_EQ(child_area, parent.Area());
    // Children are pairwise disjoint.
    std::vector<std::int64_t> kids = tree.Children(v);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      for (std::size_t j = i + 1; j < kids.size(); ++j) {
        EXPECT_FALSE(
            quad.NodeRect(kids[i]).Overlaps(quad.NodeRect(kids[j])));
      }
    }
  }
}

TEST(QuadtreeLayoutTest, LeafCellRoundTrip) {
  QuadtreeLayout quad(8, 8);
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      std::int64_t leaf = quad.LeafNode(r, c);
      EXPECT_TRUE(quad.tree().IsLeaf(leaf));
      std::int64_t r2, c2;
      quad.LeafCell(leaf, &r2, &c2);
      EXPECT_EQ(r2, r);
      EXPECT_EQ(c2, c);
      EXPECT_EQ(quad.NodeRect(leaf), Rect(r, r, c, c));
    }
  }
}

void ExpectExactRectCover(const QuadtreeLayout& quad,
                          const std::vector<std::int64_t>& nodes,
                          const Rect& rect) {
  // Disjoint blocks whose total area matches and all inside the rect.
  std::int64_t area = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Rect block = quad.NodeRect(nodes[i]);
    EXPECT_TRUE(rect.Covers(block));
    area += block.Area();
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      EXPECT_FALSE(block.Overlaps(quad.NodeRect(nodes[j])));
    }
  }
  EXPECT_EQ(area, rect.Area());
}

TEST(QuadtreeDecompositionTest, AlignedBlocksAreSingleNodes) {
  QuadtreeLayout quad(8, 8);
  std::vector<std::int64_t> full = quad.DecomposeRect(Rect(0, 7, 0, 7));
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0], 0);
  std::vector<std::int64_t> quadrant = quad.DecomposeRect(Rect(4, 7, 0, 3));
  ASSERT_EQ(quadrant.size(), 1u);
  EXPECT_EQ(quad.NodeRect(quadrant[0]), Rect(4, 7, 0, 3));
}

TEST(QuadtreeDecompositionTest, SingleCell) {
  QuadtreeLayout quad(8, 8);
  std::vector<std::int64_t> nodes = quad.DecomposeRect(Rect(5, 5, 2, 2));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], quad.LeafNode(5, 2));
}

TEST(QuadtreeDecompositionTest, ExhaustiveSmallGrid) {
  QuadtreeLayout quad(8, 8);
  for (std::int64_t r0 = 0; r0 < 8; ++r0) {
    for (std::int64_t r1 = r0; r1 < 8; ++r1) {
      for (std::int64_t c0 = 0; c0 < 8; ++c0) {
        for (std::int64_t c1 = c0; c1 < 8; ++c1) {
          Rect rect(r0, r1, c0, c1);
          ExpectExactRectCover(quad, quad.DecomposeRect(rect), rect);
        }
      }
    }
  }
}

TEST(QuadtreeDecompositionTest, RandomRectsOnLargerGrid) {
  QuadtreeLayout quad(64, 64);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t r0 = rng.NextInt(0, 63);
    std::int64_t r1 = rng.NextInt(r0, 63);
    std::int64_t c0 = rng.NextInt(0, 63);
    std::int64_t c1 = rng.NextInt(c0, 63);
    Rect rect(r0, r1, c0, c1);
    std::vector<std::int64_t> nodes = quad.DecomposeRect(rect);
    ExpectExactRectCover(quad, nodes, rect);
    // Minimality: no complete sibling quartet may appear.
    std::vector<std::int64_t> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    for (std::int64_t v : sorted) {
      if (v == 0) continue;
      std::int64_t parent = quad.tree().Parent(v);
      bool all_present = true;
      for (std::int64_t sib : quad.tree().Children(parent)) {
        if (!std::binary_search(sorted.begin(), sorted.end(), sib)) {
          all_present = false;
          break;
        }
      }
      EXPECT_FALSE(all_present);
    }
  }
}

TEST(QuadtreeDecompositionDeathTest, RejectsOutOfBounds) {
  QuadtreeLayout quad(8, 8);
  EXPECT_DEATH(quad.DecomposeRect(Rect(0, 8, 0, 7)), "outside");
}

}  // namespace
}  // namespace dphist
