// Tests for the batched / allocation-free answer paths of the universal
// estimators: the H-bar prefix-sum fast path must be indistinguishable
// from the subtree-decomposition reference, and every estimator's batched
// RangeCounts must match its scalar RangeCount.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/experiments/runner.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "tree/tree_layout.h"

namespace dphist {
namespace {

Histogram ZipfData(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Histogram::FromCounts(ZipfCounts(n, 1.2, 4 * n, &rng));
}

TEST(HBarFastPathTest, PrefixMatchesDecompositionAcrossBranchingFactors) {
  // The acceptance property: for consistent trees the O(1) prefix answers
  // equal the decomposition answers to 1e-9, for every branching factor.
  for (std::int64_t branching = 2; branching <= 16; ++branching) {
    Histogram data = ZipfData(600, 17u + static_cast<std::uint64_t>(branching));
    UniversalOptions options;
    options.epsilon = 0.5;
    options.branching = branching;
    options.round_to_nonnegative_integers = false;
    options.prune_nonpositive_subtrees = false;
    Rng rng(91u * static_cast<std::uint64_t>(branching));
    HBarEstimator h_bar(data, options, &rng);
    ASSERT_TRUE(h_bar.uses_prefix_fast_path()) << "k=" << branching;

    Rng query_rng(7);
    for (int trial = 0; trial < 200; ++trial) {
      std::int64_t lo = query_rng.NextInt(0, data.size() - 1);
      std::int64_t hi = query_rng.NextInt(lo, data.size() - 1);
      Interval q(lo, hi);
      EXPECT_NEAR(h_bar.RangeCount(q), h_bar.RangeCountViaDecomposition(q),
                  1e-9)
          << "k=" << branching << " range " << q.ToString();
    }
  }
}

TEST(HBarFastPathTest, RoundingDisablesThePrefixPathButKeepsAnswers) {
  // Rounding each node independently breaks parent-equals-children, so
  // construction must detect the inconsistency and answer by
  // decomposition — matching the decomposition reference exactly.
  Histogram data = ZipfData(300, 5);
  UniversalOptions options;
  options.epsilon = 0.2;
  Rng rng(23);
  HBarEstimator h_bar(data, options, &rng);
  EXPECT_FALSE(h_bar.uses_prefix_fast_path());

  Rng query_rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::int64_t lo = query_rng.NextInt(0, data.size() - 1);
    std::int64_t hi = query_rng.NextInt(lo, data.size() - 1);
    Interval q(lo, hi);
    EXPECT_DOUBLE_EQ(h_bar.RangeCount(q), h_bar.RangeCountViaDecomposition(q));
  }
}

TEST(HBarFastPathTest, ConsistencyCheckFindsAnySingleBrokenNode) {
  // The check streams one left-to-right fold of the leaves, so every
  // internal node inside the domain must still be compared, wherever it
  // sits. Break one node at a time in a consistent release: the fast
  // path must go exactly when that node lies wholly inside the domain
  // (a node over padding never appears in an in-domain decomposition).
  const std::int64_t n = 600;
  for (std::int64_t branching : {2, 3, 7}) {
    UniversalOptions options;
    options.branching = branching;
    options.round_to_nonnegative_integers = false;
    options.prune_nonpositive_subtrees = false;
    Rng rng(101u + static_cast<std::uint64_t>(branching));
    HBarEstimator consistent(ZipfData(n, 4), options, &rng);
    ASSERT_TRUE(consistent.uses_prefix_fast_path());
    const TreeLayout& tree = consistent.tree();
    const std::int64_t internal = tree.LevelStart(tree.height() - 1);
    for (std::int64_t v = 0; v < internal; ++v) {
      std::vector<double> nodes = consistent.node_estimates();
      nodes[static_cast<std::size_t>(v)] += 1.0;
      auto broken = HBarEstimator::Restore(n, options, std::move(nodes));
      ASSERT_TRUE(broken.ok());
      EXPECT_EQ(broken.value()->uses_prefix_fast_path(),
                tree.NodeRange(v).hi() >= n)
          << "k=" << branching << " node " << v;
    }
  }
}

TEST(HBarFastPathTest, PrefixAnswersEqualLeafSums) {
  Histogram data = ZipfData(200, 9);
  UniversalOptions options;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  Rng rng(31);
  HBarEstimator h_bar(data, options, &rng);
  ASSERT_TRUE(h_bar.uses_prefix_fast_path());
  for (std::int64_t lo = 0; lo < data.size(); lo += 17) {
    std::int64_t hi = std::min<std::int64_t>(lo + 23, data.size() - 1);
    double leaf_sum = 0.0;
    for (std::int64_t i = lo; i <= hi; ++i) {
      leaf_sum += h_bar.leaf_estimates()[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(h_bar.RangeCount(Interval(lo, hi)), leaf_sum, 1e-9);
  }
}

TEST(BatchedRangeCountsTest, MatchesScalarAnswersOnAllThreeEstimators) {
  Histogram data = ZipfData(500, 2);
  UniversalOptions options;
  options.epsilon = 0.5;
  Rng rng(13);
  LTildeEstimator l_tilde(data, options, &rng);
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
  HTildeEstimator h_tilde(data.size(), options, noisy);
  HBarEstimator h_bar(data.size(), options, noisy);

  Rng workload_rng(77);
  std::vector<Interval> ranges =
      RandomRangesOfSize(data.size(), 37, 200, &workload_rng);
  for (const RangeCountEstimator* est :
       {static_cast<const RangeCountEstimator*>(&l_tilde),
        static_cast<const RangeCountEstimator*>(&h_tilde),
        static_cast<const RangeCountEstimator*>(&h_bar)}) {
    std::vector<double> batched(ranges.size());
    est->RangeCountsInto(ranges.data(), ranges.size(), batched.data());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_DOUBLE_EQ(batched[i], est->RangeCount(ranges[i]))
          << est->Name() << " range " << ranges[i].ToString();
    }
  }
}

TEST(BatchedRangeCountsTest, DefaultBaseImplementationForwardsToScalar) {
  // An estimator that does not override the batched hook still gets
  // correct batched answers through the base-class loop.
  class ConstantEstimator : public RangeCountEstimator {
   public:
    double RangeCount(const Interval& range) const override {
      return static_cast<double>(range.Length());
    }
    std::string Name() const override { return "const"; }
  };
  ConstantEstimator est;
  std::vector<Interval> ranges = {Interval(0, 4), Interval(2, 2),
                                  Interval(1, 9)};
  std::vector<double> out(ranges.size());
  est.RangeCountsInto(ranges.data(), ranges.size(), out.data());
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 9.0);
}

}  // namespace
}  // namespace dphist
