#include "inference/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/laplace.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "domain/histogram.h"
#include "paper/linalg/least_squares.h"
#include "query/hierarchical_query.h"
#include "tests/support/consistency.h"

namespace dphist {
namespace {

std::vector<double> RandomNodeVector(const TreeLayout& tree, Rng* rng) {
  std::vector<double> v(static_cast<std::size_t>(tree.node_count()));
  for (double& x : v) x = rng->NextUniform(-10, 10);
  return v;
}

TEST(HierarchicalInferenceTest, ConsistentInputIsFixedPoint) {
  // Exact tree counts already satisfy the constraints, so inference must
  // return them unchanged (the projection of a feasible point).
  Histogram data = Histogram::FromCounts({2, 0, 10, 2});
  HierarchicalQuery query(4, 2);
  std::vector<double> exact = query.Evaluate(data);
  HierarchicalInferenceResult result =
      HierarchicalInference(query.tree(), exact);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(result.node_estimates[i], exact[i], 1e-9);
  }
}

TEST(HierarchicalInferenceTest, OutputAlwaysConsistent) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    TreeLayout tree(16, 2);
    std::vector<double> noisy = RandomNodeVector(tree, &rng);
    HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);
    EXPECT_LT(MaxConsistencyViolation(tree, result.node_estimates), 1e-9);
  }
}

TEST(HierarchicalInferenceTest, PaperFig2InferredExample) {
  // Fig. 2(b): H~(I) = <13, 3, 11, 4, 1, 12, 1>. The paper reports the
  // inferred answer H(I)-bar = <14, 3, 11, 3, 0, 11, 0>. Our exact least
  // squares solution must be consistent and close to the paper's rounded
  // rendition (the paper prints integers).
  TreeLayout tree(4, 2);
  std::vector<double> noisy = {13, 3, 11, 4, 1, 12, 1};
  HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);
  const std::vector<double>& h = result.node_estimates;
  EXPECT_LT(MaxConsistencyViolation(tree, h), 1e-9);
  // Root: z[r] = (k-1)/(k^ell - 1) * sum_i k^i * (level-i sum) with level
  // counted from the leaves: (1/7)*(4*13 + 2*(3+11) + 1*(4+1+12+1)) =
  // (52 + 28 + 18)/7 = 14.
  EXPECT_NEAR(h[0], 14.0, 1e-9);
  // For this draw the least-squares solution is exactly integral and
  // matches the paper's printed vector: hand-worked z = (14, 11/3, 35/3,
  // 4, 1, 12, 1) and the top-down pass gives <14, 3, 11, 3, 0, 11, 0>.
  std::vector<double> paper = {14, 3, 11, 3, 0, 11, 0};
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_NEAR(h[i], paper[i], 1e-9) << "node " << i;
  }
}

TEST(HierarchicalInferenceTest, MatchesGenericLeastSquares) {
  // Theorem 3 claims the two-pass recurrence *is* the OLS solution. Check
  // against the dense QR solver: unknowns are leaf counts, observation
  // matrix X maps leaves to all tree nodes.
  Rng rng(2);
  for (std::int64_t leaves : {2, 4, 8}) {
    TreeLayout tree(leaves, 2);
    linalg::Matrix x(static_cast<std::size_t>(tree.node_count()),
                     static_cast<std::size_t>(leaves));
    for (std::int64_t v = 0; v < tree.node_count(); ++v) {
      Interval r = tree.NodeRange(v);
      for (std::int64_t leaf = r.lo(); leaf <= r.hi(); ++leaf) {
        x(static_cast<std::size_t>(v), static_cast<std::size_t>(leaf)) = 1.0;
      }
    }
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> noisy = RandomNodeVector(tree, &rng);
      auto ols = linalg::OlsFittedValues(x, noisy);
      ASSERT_TRUE(ols.ok());
      HierarchicalInferenceResult fast = HierarchicalInference(tree, noisy);
      for (std::size_t i = 0; i < noisy.size(); ++i) {
        EXPECT_NEAR(fast.node_estimates[i], ols.value()[i], 1e-8)
            << "leaves=" << leaves << " node=" << i;
      }
    }
  }
}

TEST(HierarchicalInferenceTest, MatchesGenericLeastSquaresTernary) {
  Rng rng(3);
  TreeLayout tree(9, 3);
  linalg::Matrix x(static_cast<std::size_t>(tree.node_count()), 9);
  for (std::int64_t v = 0; v < tree.node_count(); ++v) {
    Interval r = tree.NodeRange(v);
    for (std::int64_t leaf = r.lo(); leaf <= r.hi(); ++leaf) {
      x(static_cast<std::size_t>(v), static_cast<std::size_t>(leaf)) = 1.0;
    }
  }
  std::vector<double> noisy = RandomNodeVector(tree, &rng);
  auto ols = linalg::OlsFittedValues(x, noisy);
  ASSERT_TRUE(ols.ok());
  HierarchicalInferenceResult fast = HierarchicalInference(tree, noisy);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    EXPECT_NEAR(fast.node_estimates[i], ols.value()[i], 1e-8);
  }
}

TEST(HierarchicalInferenceTest, RootIsWeightedLevelAverage) {
  // Theorem 3 proof identity: h[r] = (k-1)/(k^ell - 1) *
  // sum_{height i} k^i * (sum of noisy counts at that height).
  Rng rng(4);
  TreeLayout tree(8, 2);
  std::vector<double> noisy = RandomNodeVector(tree, &rng);
  HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);

  double k = 2.0;
  double ell = static_cast<double>(tree.height());
  double expected = 0.0;
  for (std::int64_t d = 0; d < tree.height(); ++d) {
    double level_sum = 0.0;
    for (std::int64_t i = 0; i < tree.LevelSize(d); ++i) {
      level_sum += noisy[static_cast<std::size_t>(tree.LevelStart(d) + i)];
    }
    double height = ell - 1.0 - static_cast<double>(d);
    expected += std::pow(k, height) * level_sum;
  }
  expected *= (k - 1.0) / (std::pow(k, ell) - 1.0);
  EXPECT_NEAR(result.node_estimates[0], expected, 1e-9);
}

TEST(HierarchicalInferenceTest, UnbiasedOverManyDraws) {
  // Theorem 4(i): h-bar is unbiased. Average node estimates over many
  // Laplace draws and compare with the exact counts.
  Histogram data = Histogram::FromCounts({3, 1, 4, 1, 5, 9, 2, 6});
  HierarchicalQuery query(8, 2);
  const TreeLayout& tree = query.tree();
  std::vector<double> exact = query.Evaluate(data);

  Rng rng(5);
  std::vector<RunningStat> stats(exact.size());
  LaplaceDistribution noise(3.0);
  for (int t = 0; t < 8000; ++t) {
    std::vector<double> noisy = exact;
    for (double& x : noisy) x += noise.Sample(&rng);
    HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);
    for (std::size_t i = 0; i < exact.size(); ++i) {
      stats[i].Add(result.node_estimates[i]);
    }
  }
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(stats[i].Mean(), exact[i], 0.35) << "node " << i;
  }
}

TEST(HierarchicalInferenceTest, ReducesNodeErrorOnAverage) {
  // error(H-bar[v]) <= error(H~[v]) for every node, aggregated here.
  Histogram data = Histogram::FromCounts({0, 0, 7, 0, 0, 2, 0, 0});
  HierarchicalQuery query(8, 2);
  const TreeLayout& tree = query.tree();
  std::vector<double> exact = query.Evaluate(data);

  Rng rng(6);
  LaplaceDistribution noise(4.0);
  RunningStat noisy_error, inferred_error;
  for (int t = 0; t < 3000; ++t) {
    std::vector<double> noisy = exact;
    for (double& x : noisy) x += noise.Sample(&rng);
    HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);
    noisy_error.Add(SquaredError(noisy, exact));
    inferred_error.Add(SquaredError(result.node_estimates, exact));
  }
  EXPECT_LT(inferred_error.Mean(), noisy_error.Mean());
}

TEST(HierarchicalInferenceTest, LeafEstimatesDropPadding) {
  TreeLayout tree(5, 2);  // pads to 8 leaves
  std::vector<double> nodes(static_cast<std::size_t>(tree.node_count()), 0.0);
  for (std::int64_t pos = 0; pos < 8; ++pos) {
    nodes[static_cast<std::size_t>(tree.LeafNode(pos))] =
        static_cast<double>(pos) + 1.0;
  }
  std::vector<double> leaves = LeafEstimates(tree, nodes, 5);
  ASSERT_EQ(leaves.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(leaves[i], static_cast<double>(i) + 1.0);
  }
}

class HierarchicalShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(HierarchicalShapeSweep, ConsistencyAndProjectionProperties) {
  auto [leaves, k] = GetParam();
  TreeLayout tree(leaves, k);
  Rng rng(static_cast<std::uint64_t>(leaves * 7 + k));
  std::vector<double> noisy = RandomNodeVector(tree, &rng);
  HierarchicalInferenceResult result = HierarchicalInference(tree, noisy);

  // Consistent output.
  EXPECT_LT(MaxConsistencyViolation(tree, result.node_estimates), 1e-8);
  // Idempotent: inferring on an already-consistent vector is the identity.
  HierarchicalInferenceResult again =
      HierarchicalInference(tree, result.node_estimates);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    EXPECT_NEAR(again.node_estimates[i], result.node_estimates[i], 1e-8);
  }
  // z of the root equals h of the root (Theorem 3 base case).
  EXPECT_NEAR(result.subtree_estimates[0], result.node_estimates[0], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalShapeSweep,
    ::testing::Values(std::make_tuple(std::int64_t{2}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{4}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{32}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{100}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{1024}, std::int64_t{2}),
                      std::make_tuple(std::int64_t{9}, std::int64_t{3}),
                      std::make_tuple(std::int64_t{81}, std::int64_t{3}),
                      std::make_tuple(std::int64_t{64}, std::int64_t{4}),
                      std::make_tuple(std::int64_t{625}, std::int64_t{5})));

TEST(HierarchicalInferenceDeathTest, WrongVectorLengthRejected) {
  TreeLayout tree(4, 2);
  std::vector<double> wrong(3, 0.0);
  EXPECT_DEATH(HierarchicalInference(tree, wrong), "node count");
}

}  // namespace
}  // namespace dphist
