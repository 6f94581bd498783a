#include "tree/tree_layout.h"

#include <gtest/gtest.h>

#include <tuple>

namespace dphist {
namespace {

TEST(TreeLayoutTest, PaperExampleBinaryTreeOfFourLeaves) {
  // Fig. 4: k = 2 over four addresses; height ell = 3, seven nodes.
  TreeLayout tree(4, 2);
  EXPECT_EQ(tree.branching(), 2);
  EXPECT_EQ(tree.height(), 3);
  EXPECT_EQ(tree.leaf_count(), 4);
  EXPECT_EQ(tree.node_count(), 7);
}

TEST(TreeLayoutTest, PadsToNextPower) {
  TreeLayout tree(5, 2);
  EXPECT_EQ(tree.leaf_count(), 8);
  EXPECT_EQ(tree.requested_leaf_count(), 5);
  EXPECT_EQ(tree.height(), 4);
  EXPECT_EQ(tree.node_count(), 15);
}

TEST(TreeLayoutTest, SingleLeafDegenerateTree) {
  TreeLayout tree(1, 2);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_TRUE(tree.IsRoot(0));
  EXPECT_TRUE(tree.IsLeaf(0));
}

TEST(TreeLayoutTest, ParentChildRelations) {
  TreeLayout tree(4, 2);
  EXPECT_EQ(tree.FirstChild(0), 1);
  EXPECT_EQ(tree.FirstChild(1), 3);
  EXPECT_EQ(tree.FirstChild(2), 5);
  EXPECT_EQ(tree.Parent(1), 0);
  EXPECT_EQ(tree.Parent(2), 0);
  EXPECT_EQ(tree.Parent(5), 2);
  EXPECT_EQ(tree.Parent(6), 2);
  std::vector<std::int64_t> kids = tree.Children(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3);
  EXPECT_EQ(kids[1], 4);
}

TEST(TreeLayoutTest, DepthAndLevels) {
  TreeLayout tree(8, 2);  // height 4, 15 nodes
  EXPECT_EQ(tree.Depth(0), 0);
  EXPECT_EQ(tree.Depth(1), 1);
  EXPECT_EQ(tree.Depth(2), 1);
  EXPECT_EQ(tree.Depth(3), 2);
  EXPECT_EQ(tree.Depth(7), 3);
  EXPECT_EQ(tree.Depth(14), 3);
  EXPECT_EQ(tree.LevelStart(0), 0);
  EXPECT_EQ(tree.LevelStart(3), 7);
  EXPECT_EQ(tree.LevelSize(0), 1);
  EXPECT_EQ(tree.LevelSize(3), 8);
}

TEST(TreeLayoutTest, NodeRangesPartitionEachLevel) {
  TreeLayout tree(16, 2);
  for (std::int64_t d = 0; d < tree.height(); ++d) {
    std::int64_t expected_lo = 0;
    for (std::int64_t i = 0; i < tree.LevelSize(d); ++i) {
      Interval r = tree.NodeRange(tree.LevelStart(d) + i);
      EXPECT_EQ(r.lo(), expected_lo);
      expected_lo = r.hi() + 1;
    }
    EXPECT_EQ(expected_lo, tree.leaf_count());
  }
}

TEST(TreeLayoutTest, ParentRangeIsUnionOfChildRanges) {
  TreeLayout tree(27, 3);
  for (std::int64_t v = 0; v < tree.node_count(); ++v) {
    if (tree.IsLeaf(v)) continue;
    Interval parent = tree.NodeRange(v);
    std::vector<std::int64_t> kids = tree.Children(v);
    EXPECT_EQ(tree.NodeRange(kids.front()).lo(), parent.lo());
    EXPECT_EQ(tree.NodeRange(kids.back()).hi(), parent.hi());
    for (std::size_t i = 1; i < kids.size(); ++i) {
      EXPECT_EQ(tree.NodeRange(kids[i]).lo(),
                tree.NodeRange(kids[i - 1]).hi() + 1);
    }
  }
}

TEST(TreeLayoutTest, LeafNodeRoundTrip) {
  TreeLayout tree(9, 3);
  for (std::int64_t pos = 0; pos < tree.leaf_count(); ++pos) {
    std::int64_t leaf = tree.LeafNode(pos);
    EXPECT_TRUE(tree.IsLeaf(leaf));
    EXPECT_EQ(tree.LeafPosition(leaf), pos);
    EXPECT_EQ(tree.NodeRange(leaf), Interval::Unit(pos));
  }
}

class TreeGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(TreeGeometrySweep, NodeCountClosedForm) {
  auto [leaves, k] = GetParam();
  TreeLayout tree(leaves, k);
  // m = (k^ell - 1) / (k - 1).
  std::int64_t expected = 0;
  std::int64_t width = 1;
  for (std::int64_t d = 0; d < tree.height(); ++d) {
    expected += width;
    width *= k;
  }
  EXPECT_EQ(tree.node_count(), expected);
  EXPECT_GE(tree.leaf_count(), leaves);
  EXPECT_LT(tree.leaf_count(), leaves * k);
}

TEST_P(TreeGeometrySweep, EveryNonRootHasConsistentParent) {
  auto [leaves, k] = GetParam();
  TreeLayout tree(leaves, k);
  for (std::int64_t v = 1; v < tree.node_count(); ++v) {
    std::int64_t p = tree.Parent(v);
    EXPECT_EQ(tree.Depth(p), tree.Depth(v) - 1);
    EXPECT_TRUE(tree.NodeRange(p).Covers(tree.NodeRange(v)));
    bool found = false;
    for (std::int64_t c : tree.Children(p)) {
      if (c == v) found = true;
    }
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeGeometrySweep,
    ::testing::Values(std::make_tuple(std::int64_t{1}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{2}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{7}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{16}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{100}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{9}, std::int64_t{3}),
                      std::make_tuple(std::int64_t{50}, std::int64_t{3}),
                      std::make_tuple(std::int64_t{64}, std::int64_t{4}),
                      std::make_tuple(std::int64_t{17}, std::int64_t{5})));

TEST(TreeLayoutDeathTest, RejectsBadParameters) {
  EXPECT_DEATH(TreeLayout(0, 2), "at least one leaf");
  EXPECT_DEATH(TreeLayout(4, 1), "branching");
}

}  // namespace
}  // namespace dphist
