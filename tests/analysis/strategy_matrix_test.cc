#include "paper/analysis/strategy_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "domain/histogram.h"
#include "estimators/universal.h"
#include "estimators/wavelet.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "tree/range_decomposition.h"

namespace dphist {
namespace {

TEST(StrategyMatrixTest, SensitivitiesMatchTheQueries) {
  EXPECT_DOUBLE_EQ(StrategyL1Sensitivity(IdentityStrategy(16)), 1.0);
  // H over 16 leaves, k=2: height 5.
  EXPECT_DOUBLE_EQ(StrategyL1Sensitivity(HierarchicalStrategy(16, 2)), 5.0);
  EXPECT_DOUBLE_EQ(StrategyL1Sensitivity(HierarchicalStrategy(16, 4)), 3.0);
  // Weighted wavelet: 1 + log2(n).
  EXPECT_DOUBLE_EQ(StrategyL1Sensitivity(WaveletStrategy(16)), 5.0);
}

TEST(StrategyMatrixTest, HierarchicalRowsAreTreeRanges) {
  linalg::Matrix h = HierarchicalStrategy(4, 2);
  ASSERT_EQ(h.rows(), 7u);
  // Root row: all ones.
  for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(h(0, j), 1.0);
  // Node 1: left half.
  EXPECT_DOUBLE_EQ(h(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 2), 0.0);
  // Leaves are unit rows.
  EXPECT_DOUBLE_EQ(h(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(3, 1), 0.0);
}

TEST(StrategyMatrixTest, IdentityStrategyVarianceIsClosedForm) {
  // L: Var(range of length R) = 2 R / eps^2, exactly.
  auto analyzer = StrategyAnalyzer::Create(IdentityStrategy(32), 0.5);
  ASSERT_TRUE(analyzer.ok());
  EXPECT_NEAR(analyzer.value().RangeVariance(Interval(0, 0)), 8.0, 1e-9);
  EXPECT_NEAR(analyzer.value().RangeVariance(Interval(3, 18)), 128.0, 1e-9);
}

TEST(StrategyMatrixTest, AnalyticHMatchesEmpiricalHBar) {
  // The closed form must agree with sampling the actual H-bar pipeline.
  const std::int64_t n = 16;
  const double eps = 1.0;
  auto analyzer = StrategyAnalyzer::Create(HierarchicalStrategy(n, 2), eps);
  ASSERT_TRUE(analyzer.ok());

  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 3));
  UniversalOptions options;
  options.epsilon = eps;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  HierarchicalQuery query(n, 2);
  LaplaceMechanism mechanism(eps);

  for (const Interval& q : {Interval(0, 0), Interval(2, 9),
                            Interval(0, 15), Interval(5, 12)}) {
    Rng rng(static_cast<std::uint64_t>(q.lo()) * 100 + 17);
    RunningStat err;
    double truth = data.Count(q);
    for (int t = 0; t < 8000; ++t) {
      std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
      HBarEstimator hbar(n, options, noisy);
      double d = hbar.RangeCount(q) - truth;
      err.Add(d * d);
    }
    double analytic = analyzer.value().RangeVariance(q);
    EXPECT_NEAR(err.Mean(), analytic, analytic * 0.08) << q.ToString();
  }
}

TEST(StrategyMatrixTest, AnalyticWaveletMatchesEmpiricalEstimator) {
  const std::int64_t n = 16;
  const double eps = 1.0;
  auto analyzer = StrategyAnalyzer::Create(WaveletStrategy(n), eps);
  ASSERT_TRUE(analyzer.ok());

  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 2));
  WaveletOptions options;
  options.epsilon = eps;
  options.round_to_nonnegative_integers = false;

  for (const Interval& q : {Interval(0, 7), Interval(3, 12)}) {
    Rng rng(static_cast<std::uint64_t>(q.hi()) * 31 + 3);
    RunningStat err;
    double truth = data.Count(q);
    for (int t = 0; t < 8000; ++t) {
      WaveletEstimator wavelet(data, options, &rng);
      double d = wavelet.RangeCount(q) - truth;
      err.Add(d * d);
    }
    double analytic = analyzer.value().RangeVariance(q);
    EXPECT_NEAR(err.Mean(), analytic, analytic * 0.08) << q.ToString();
  }
}

TEST(StrategyMatrixTest, Theorem4iiHBeatsIdentityAtLargeRanges) {
  // Analytic (noise-free) confirmation of the Fig. 6 crossover: under H
  // the large-range variance beats L's; at unit ranges L wins. The
  // crossover needs ranges beyond ~2 ell^2, so use a 256-bin domain
  // (ell = 9) where 250-length ranges sit beyond it.
  const std::int64_t n = 256;
  auto l = StrategyAnalyzer::Create(IdentityStrategy(n), 1.0);
  auto h = StrategyAnalyzer::Create(HierarchicalStrategy(n, 2), 1.0);
  ASSERT_TRUE(l.ok() && h.ok());
  EXPECT_LT(l.value().RangeVariance(Interval(5, 5)),
            h.value().RangeVariance(Interval(5, 5)));
  EXPECT_GT(l.value().RangeVariance(Interval(1, 254)),
            h.value().RangeVariance(Interval(1, 254)));
}

TEST(StrategyMatrixTest, Theorem4ivWitnessBoundAnalytic) {
  // The witness ratio of Theorem 4(iv), evaluated exactly: for q = all
  // but the extreme leaves, Var_H(q) <= 3/(2(ell-1)(k-1)-k) * Var_H~(q).
  for (std::int64_t height = 4; height <= 7; ++height) {
    std::int64_t n = std::int64_t{1} << (height - 1);
    auto h = StrategyAnalyzer::Create(HierarchicalStrategy(n, 2), 1.0);
    ASSERT_TRUE(h.ok());
    Interval witness(1, n - 2);
    double hbar_var = h.value().RangeVariance(witness);
    double ell = static_cast<double>(height);
    double subtrees = 2.0 * (ell - 1.0) - 2.0;
    double htilde_var = subtrees * 2.0 * ell * ell;  // decomposition sum
    double bound = 3.0 / subtrees;
    EXPECT_LE(hbar_var, bound * htilde_var * (1.0 + 1e-9))
        << "height " << height;
  }
}

TEST(StrategyMatrixTest, GaussMarkovHBeatsDecompositionEverywhere) {
  // Theorem 4(ii) analytically: the OLS range variance under H is never
  // above the subtree-decomposition estimator's variance, for EVERY
  // range of a 32-leaf tree.
  const std::int64_t n = 32;
  const std::int64_t height = 6;
  auto h = StrategyAnalyzer::Create(HierarchicalStrategy(n, 2), 1.0);
  ASSERT_TRUE(h.ok());
  TreeLayout tree(n, 2);
  for (std::int64_t lo = 0; lo < n; ++lo) {
    for (std::int64_t hi = lo; hi < n; ++hi) {
      Interval q(lo, hi);
      double ols = h.value().RangeVariance(q);
      double decomposition =
          static_cast<double>(DecomposeRange(tree, q).size()) * 2.0 *
          static_cast<double>(height) * static_cast<double>(height);
      EXPECT_LE(ols, decomposition * (1.0 + 1e-9)) << q.ToString();
    }
  }
}

TEST(StrategyMatrixTest, RejectsRankDeficientStrategy) {
  // Two identical unit rows but a missing column: zero column -> error.
  linalg::Matrix bad(2, 2);
  bad(0, 0) = 1.0;
  bad(1, 0) = 1.0;
  auto analyzer = StrategyAnalyzer::Create(bad, 1.0);
  EXPECT_FALSE(analyzer.ok());
}

TEST(StrategyMatrixTest, RejectsBadEpsilon) {
  EXPECT_FALSE(StrategyAnalyzer::Create(IdentityStrategy(4), 0.0).ok());
}

}  // namespace
}  // namespace dphist
