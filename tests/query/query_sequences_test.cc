#include <gtest/gtest.h>

#include "domain/histogram.h"
#include "query/hierarchical_query.h"
#include "paper/query/sorted_query.h"
#include "query/unit_query.h"

namespace dphist {
namespace {

// The running example of Fig. 2: src counts <2, 0, 10, 2>.
Histogram PaperExample() { return Histogram::FromCounts({2, 0, 10, 2}, "src"); }

TEST(UnitQueryTest, MatchesPaperExample) {
  UnitQuery query(4);
  std::vector<double> answer = query.Evaluate(PaperExample());
  // L(I) = <2, 0, 10, 2>.
  ASSERT_EQ(answer.size(), 4u);
  EXPECT_DOUBLE_EQ(answer[0], 2.0);
  EXPECT_DOUBLE_EQ(answer[1], 0.0);
  EXPECT_DOUBLE_EQ(answer[2], 10.0);
  EXPECT_DOUBLE_EQ(answer[3], 2.0);
  EXPECT_EQ(query.size(), 4);
  EXPECT_DOUBLE_EQ(query.Sensitivity(), 1.0);
  EXPECT_EQ(query.Name(), "L");
}

TEST(SortedQueryTest, MatchesPaperExample) {
  SortedQuery query(4);
  std::vector<double> answer = query.Evaluate(PaperExample());
  // S(I) = <0, 2, 2, 10> (Example 3).
  ASSERT_EQ(answer.size(), 4u);
  EXPECT_DOUBLE_EQ(answer[0], 0.0);
  EXPECT_DOUBLE_EQ(answer[1], 2.0);
  EXPECT_DOUBLE_EQ(answer[2], 2.0);
  EXPECT_DOUBLE_EQ(answer[3], 10.0);
  EXPECT_DOUBLE_EQ(query.Sensitivity(), 1.0);
  EXPECT_EQ(query.Name(), "S");
}

TEST(HierarchicalQueryTest, MatchesPaperExample) {
  HierarchicalQuery query(4, 2);
  std::vector<double> answer = query.Evaluate(PaperExample());
  // H(I) = <14, 2, 12, 2, 0, 10, 2> (Example 6).
  ASSERT_EQ(answer.size(), 7u);
  EXPECT_DOUBLE_EQ(answer[0], 14.0);
  EXPECT_DOUBLE_EQ(answer[1], 2.0);
  EXPECT_DOUBLE_EQ(answer[2], 12.0);
  EXPECT_DOUBLE_EQ(answer[3], 2.0);
  EXPECT_DOUBLE_EQ(answer[4], 0.0);
  EXPECT_DOUBLE_EQ(answer[5], 10.0);
  EXPECT_DOUBLE_EQ(answer[6], 2.0);
  // Sensitivity equals the tree height ell = 3 (Proposition 4).
  EXPECT_DOUBLE_EQ(query.Sensitivity(), 3.0);
  EXPECT_EQ(query.Name(), "H");
}

TEST(HierarchicalQueryTest, PaddedDomainKeepsSums) {
  // 5 counts pad to 8 leaves; every internal sum must still be exact.
  Histogram data = Histogram::FromCounts({1, 2, 3, 4, 5});
  HierarchicalQuery query(5, 2);
  std::vector<double> answer = query.Evaluate(data);
  const TreeLayout& tree = query.tree();
  ASSERT_EQ(answer.size(), static_cast<std::size_t>(tree.node_count()));
  EXPECT_DOUBLE_EQ(answer[0], 15.0);  // root = total
  for (std::int64_t v = 0; v < tree.node_count(); ++v) {
    if (tree.IsLeaf(v)) continue;
    double child_sum = 0.0;
    for (std::int64_t c : tree.Children(v)) {
      child_sum += answer[static_cast<std::size_t>(c)];
    }
    EXPECT_DOUBLE_EQ(answer[static_cast<std::size_t>(v)], child_sum);
  }
  // Padding leaves are zero.
  for (std::int64_t pos = 5; pos < 8; ++pos) {
    EXPECT_DOUBLE_EQ(answer[static_cast<std::size_t>(tree.LeafNode(pos))],
                     0.0);
  }
}

TEST(HierarchicalQueryTest, TernaryTree) {
  Histogram data = Histogram::FromCounts({1, 1, 1, 1, 1, 1, 1, 1, 1});
  HierarchicalQuery query(9, 3);
  std::vector<double> answer = query.Evaluate(data);
  // Tree: 1 root + 3 internals + 9 leaves = 13 nodes; ell = 3.
  ASSERT_EQ(answer.size(), 13u);
  EXPECT_DOUBLE_EQ(answer[0], 9.0);
  EXPECT_DOUBLE_EQ(answer[1], 3.0);
  EXPECT_DOUBLE_EQ(query.Sensitivity(), 3.0);
}

TEST(HierarchicalQueryTest, SizeEqualsNodeCount) {
  HierarchicalQuery query(1000, 2);
  EXPECT_EQ(query.size(), query.tree().node_count());
}

TEST(QuerySequenceDeathTest, DomainMismatchRejected) {
  Histogram small = Histogram::FromCounts({1, 2});
  UnitQuery l(3);
  SortedQuery s(3);
  HierarchicalQuery h(3, 2);
  EXPECT_DEATH(l.Evaluate(small), "domain");
  EXPECT_DEATH(s.Evaluate(small), "domain");
  EXPECT_DEATH(h.Evaluate(small), "domain");
}

}  // namespace
}  // namespace dphist
