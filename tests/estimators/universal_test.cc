#include "estimators/universal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "inference/hierarchical.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "tests/support/consistency.h"
#include "tree/range_decomposition.h"

namespace dphist {
namespace {

Histogram SparseData() {
  // 32 positions, two active clusters, long zero runs.
  std::vector<std::int64_t> counts(32, 0);
  counts[3] = 20;
  counts[4] = 15;
  counts[20] = 7;
  return Histogram::FromCounts(counts);
}

UniversalOptions NoRounding(double epsilon) {
  UniversalOptions options;
  options.epsilon = epsilon;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  return options;
}

TEST(LTildeTest, UnbiasedPerPosition) {
  Histogram data = SparseData();
  Rng rng(1);
  RunningStat at3;
  for (int t = 0; t < 5000; ++t) {
    LTildeEstimator est(data, NoRounding(1.0), &rng);
    at3.Add(est.leaf_estimates()[3]);
  }
  EXPECT_NEAR(at3.Mean(), 20.0, 0.15);
}

TEST(LTildeTest, RangeCountIsLeafSum) {
  Histogram data = SparseData();
  Rng rng(2);
  LTildeEstimator est(data, NoRounding(1.0), &rng);
  const std::vector<double>& leaves = est.leaf_estimates();
  double manual = leaves[3] + leaves[4] + leaves[5];
  EXPECT_NEAR(est.RangeCount(Interval(3, 5)), manual, 1e-9);
}

TEST(LTildeTest, RangeErrorGrowsLinearly) {
  // error(L~_q) = 2 (y - x + 1) / eps^2: doubling the range doubles it.
  Histogram data = SparseData();
  Rng rng(3);
  RunningStat err_small, err_large;
  for (int t = 0; t < 4000; ++t) {
    LTildeEstimator est(data, NoRounding(1.0), &rng);
    double truth_small = data.Count(Interval(0, 7));
    double truth_large = data.Count(Interval(0, 15));
    double ds = est.RangeCount(Interval(0, 7)) - truth_small;
    double dl = est.RangeCount(Interval(0, 15)) - truth_large;
    err_small.Add(ds * ds);
    err_large.Add(dl * dl);
  }
  EXPECT_NEAR(err_small.Mean(), 16.0, 1.5);   // 8 leaves * 2/eps^2
  EXPECT_NEAR(err_large.Mean(), 32.0, 3.0);   // 16 leaves * 2/eps^2
}

TEST(HTildeTest, UsesScaledNoise) {
  // H over 32 leaves has height 6; per-node variance = 2*(6/eps)^2.
  Histogram data = SparseData();
  Rng rng(4);
  RunningStat root;
  for (int t = 0; t < 5000; ++t) {
    HTildeEstimator est(data, NoRounding(1.0), &rng);
    root.Add(est.node_answers()[0]);
  }
  EXPECT_NEAR(root.Mean(), data.Total(), 1.0);
  EXPECT_NEAR(root.Variance(), 72.0, 8.0);
}

TEST(HTildeTest, RangeCountMatchesDecompositionByHand) {
  Histogram data = SparseData();
  Rng rng(5);
  UniversalOptions options = NoRounding(1.0);
  HTildeEstimator est(data, options, &rng);
  // [0, 15] is exactly the root's left child (node 1).
  EXPECT_NEAR(est.RangeCount(Interval(0, 15)), est.node_answers()[1], 1e-9);
  // Full domain is the root.
  EXPECT_NEAR(est.RangeCount(Interval(0, 31)), est.node_answers()[0], 1e-9);
}

TEST(HTildeTest, SharedDrawConstructorMatches) {
  Histogram data = SparseData();
  UniversalOptions options = NoRounding(1.0);
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  Rng rng(6);
  std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
  HTildeEstimator est(data.size(), options, noisy);
  for (std::int64_t lo = 0; lo < 32; lo += 5) {
    Interval q(lo, std::min<std::int64_t>(lo + 6, 31));
    double manual = 0.0;
    // est must reproduce sums of the given noisy vector exactly.
    HTildeEstimator direct(data.size(), options, noisy);
    manual = direct.RangeCount(q);
    EXPECT_DOUBLE_EQ(est.RangeCount(q), manual);
  }
}

TEST(HBarTest, LeafPrefixAndDecompositionAgree) {
  // Consistency makes every way of answering a range agree: summing
  // inferred leaves equals summing any subtree decomposition.
  Histogram data = SparseData();
  UniversalOptions options = NoRounding(1.0);
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  Rng rng(7);
  std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
  HBarEstimator h_bar(data.size(), options, noisy);

  const TreeLayout& tree = h_bar.tree();
  for (int trial = 0; trial < 50; ++trial) {
    std::int64_t lo = rng.NextInt(0, 31);
    std::int64_t hi = rng.NextInt(lo, 31);
    double from_leaves = h_bar.RangeCount(Interval(lo, hi));
    double from_nodes = 0.0;
    for (std::int64_t v : DecomposeRange(tree, Interval(lo, hi))) {
      from_nodes += h_bar.node_estimates()[static_cast<std::size_t>(v)];
    }
    EXPECT_NEAR(from_leaves, from_nodes, 1e-8);
  }
}

TEST(HBarTest, NeverWorseThanHTildeOnAverage) {
  Histogram data = SparseData();
  UniversalOptions options = NoRounding(0.5);
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  Rng rng(8);
  RunningStat err_ht, err_hb;
  for (int t = 0; t < 2000; ++t) {
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    HTildeEstimator ht(data.size(), options, noisy);
    HBarEstimator hb(data.size(), options, noisy);
    for (std::int64_t lo : {0, 5, 11}) {
      Interval q(lo, lo + 9);
      double truth = data.Count(q);
      double dt = ht.RangeCount(q) - truth;
      double db = hb.RangeCount(q) - truth;
      err_ht.Add(dt * dt);
      err_hb.Add(db * db);
    }
  }
  EXPECT_LT(err_hb.Mean(), err_ht.Mean());
}

TEST(HBarTest, PruningZeroesSparseRegions) {
  // With pruning on and a strongly negative subtree draw, leaves under it
  // must come out exactly zero.
  UniversalOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = true;
  TreeLayout tree(8, 2);
  // Hand-build a noisy vector: left half very negative, right half clean.
  std::vector<double> noisy = {4.0, -8.0, 12.0, -4.0, -4.0, 6.0, 6.0,
                               -2.0, -2.0, -2.0, -2.0, 3.0, 3.0, 3.0, 3.0};
  HBarEstimator est(8, options, noisy);
  for (std::int64_t pos = 0; pos < 4; ++pos) {
    EXPECT_DOUBLE_EQ(est.leaf_estimates()[static_cast<std::size_t>(pos)], 0.0);
  }
  EXPECT_DOUBLE_EQ(est.RangeCount(Interval(0, 3)), 0.0);
}

TEST(HBarTest, RoundingProducesNonNegativeIntegers) {
  Histogram data = SparseData();
  UniversalOptions options;  // defaults: rounding + pruning on
  options.epsilon = 0.2;
  Rng rng(9);
  HBarEstimator est(data, options, &rng);
  for (double v : est.leaf_estimates()) {
    EXPECT_GE(v, 0.0);
    EXPECT_DOUBLE_EQ(v, std::round(v));
  }
}

TEST(UniversalEstimatorsTest, NamesAreStable) {
  Histogram data = SparseData();
  Rng rng(10);
  UniversalOptions options = NoRounding(1.0);
  EXPECT_EQ(LTildeEstimator(data, options, &rng).Name(), "L~");
  EXPECT_EQ(HTildeEstimator(data, options, &rng).Name(), "H~");
  EXPECT_EQ(HBarEstimator(data, options, &rng).Name(), "H-bar");
}

class BranchingSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BranchingSweep, HBarConsistentForAnyBranching) {
  std::int64_t k = GetParam();
  Histogram data = SparseData();
  UniversalOptions options = NoRounding(1.0);
  options.branching = k;
  Rng rng(static_cast<std::uint64_t>(k));
  HBarEstimator est(data, options, &rng);
  EXPECT_LT(MaxConsistencyViolation(est.tree(), est.node_estimates()), 1e-8);
  // All (padded) leaves sum to the root estimate.
  double all_leaf_sum = 0.0;
  for (std::int64_t pos = 0; pos < est.tree().leaf_count(); ++pos) {
    all_leaf_sum += est.node_estimates()[static_cast<std::size_t>(
        est.tree().LeafNode(pos))];
  }
  EXPECT_NEAR(all_leaf_sum, est.node_estimates()[0], 1e-8);
  // RangeCount over the real domain equals the sum of the real-domain
  // leaf estimates (padding excluded).
  double real_leaf_sum = 0.0;
  for (std::int64_t pos = 0; pos < 32; ++pos) {
    real_leaf_sum += est.node_estimates()[static_cast<std::size_t>(
        est.tree().LeafNode(pos))];
  }
  EXPECT_NEAR(est.RangeCount(Interval(0, 31)), real_leaf_sum, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Branchings, BranchingSweep,
                         ::testing::Values(2, 3, 4, 8, 16));

}  // namespace
}  // namespace dphist
