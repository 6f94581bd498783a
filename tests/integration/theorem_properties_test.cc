// Empirical verification of the paper's theorems at test scale:
// Theorem 2's error(S-bar) dependence on the number of distinct counts d,
// and Theorem 4's optimality and witness-query claims for H-bar.

#include <gtest/gtest.h>

#include <cmath>

#include "common/laplace.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/experiments/runner.h"
#include "paper/inference/isotonic.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "tree/range_decomposition.h"

namespace dphist {
namespace {

// Average total squared error of isotonic regression on a planted sorted
// sequence under Lap(1/eps) noise.
double IsotonicError(const std::vector<double>& truth, double eps,
                     int trials, std::uint64_t seed) {
  Rng rng(seed);
  LaplaceDistribution noise(1.0 / eps);
  RunningStat err;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> noisy = truth;
    for (double& x : noisy) x += noise.Sample(&rng);
    err.Add(SquaredError(IsotonicRegression(noisy), truth));
  }
  return err.Mean();
}

// A sorted sequence of length n with exactly d distinct values, equal run
// lengths, and well-separated steps.
std::vector<double> StepSequence(std::size_t n, std::size_t d) {
  std::vector<double> truth(n);
  std::size_t run = n / d;
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<double>(std::min(i / run, d - 1)) * 50.0;
  }
  return truth;
}

TEST(Theorem2Test, ConstantSequenceErrorIsPolyLog) {
  // d = 1: error(S-bar) = O(log^3 n / eps^2) vs error(S~) = 2n/eps^2.
  const std::size_t n = 1024;
  const double eps = 1.0;
  double err = IsotonicError(StepSequence(n, 1), eps, 60, 1);
  double stilde = 2.0 * static_cast<double>(n) / (eps * eps);
  // log2(1024)^3 = 1000, same order as n here, so require a 10x win which
  // only materializes through actual pooling.
  EXPECT_LT(err * 10.0, stilde);
}

TEST(Theorem2Test, ErrorGrowsWithDistinctCount) {
  // Fix n, sweep d: error should increase monotonically (allowing slack)
  // and roughly linearly in d.
  const std::size_t n = 512;
  const double eps = 1.0;
  double err_d1 = IsotonicError(StepSequence(n, 1), eps, 60, 2);
  double err_d4 = IsotonicError(StepSequence(n, 4), eps, 60, 3);
  double err_d16 = IsotonicError(StepSequence(n, 16), eps, 60, 4);
  EXPECT_LT(err_d1, err_d4);
  EXPECT_LT(err_d4, err_d16);
  // Near-linear growth in d: quadrupling d should land within [2x, 8x].
  EXPECT_GT(err_d16 / err_d4, 2.0);
  EXPECT_LT(err_d16 / err_d4, 8.0);
}

TEST(Theorem2Test, ErrorSublinearInNWhenDFixed) {
  // Fix d = 4, quadruple n: error(S-bar) should grow far slower than n
  // (poly-log), while error(S~) grows linearly.
  const double eps = 1.0;
  double err_n256 = IsotonicError(StepSequence(256, 4), eps, 60, 5);
  double err_n1024 = IsotonicError(StepSequence(1024, 4), eps, 60, 6);
  EXPECT_LT(err_n1024 / err_n256, 2.5);  // linear growth would be 4x
}

TEST(Theorem2Test, AllDistinctSequenceGivesNoBigWin) {
  // d = n: both estimators scale linearly; inference cannot pool anything
  // when every step is large, so the win is bounded.
  const std::size_t n = 256;
  const double eps = 1.0;
  std::vector<double> truth(n);
  for (std::size_t i = 0; i < n; ++i) truth[i] = static_cast<double>(i) * 50.0;
  double err = IsotonicError(truth, eps, 60, 7);
  double stilde = 2.0 * static_cast<double>(n) / (eps * eps);
  // With huge gaps the projection is almost surely the identity.
  EXPECT_GT(err, 0.9 * stilde);
  EXPECT_LT(err, 1.1 * stilde);
}

// ---- Theorem 4 ----

TEST(Theorem4Test, HBarBeatsEveryDecompositionEstimator) {
  // (ii): H-bar has minimal error among linear unbiased estimators; in
  // particular it must not lose to the H~ subtree-decomposition estimator
  // on any fixed query, measured over many draws.
  const std::int64_t n = 64;
  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 2));
  UniversalOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;

  HierarchicalQuery query(n, 2);
  LaplaceMechanism mechanism(options.epsilon);
  Rng rng(8);
  std::vector<Interval> queries = {Interval(0, 0), Interval(3, 17),
                                   Interval(1, 62), Interval(16, 47),
                                   Interval(0, 63)};
  std::vector<RunningStat> err_ht(queries.size()), err_hb(queries.size());
  for (int t = 0; t < 1500; ++t) {
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    HTildeEstimator ht(n, options, noisy);
    HBarEstimator hb(n, options, noisy);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      double truth = data.Count(queries[i]);
      double dt = ht.RangeCount(queries[i]) - truth;
      double db = hb.RangeCount(queries[i]) - truth;
      err_ht[i].Add(dt * dt);
      err_hb[i].Add(db * db);
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_LE(err_hb[i].Mean(), err_ht[i].Mean() * 1.08)
        << "query " << queries[i].ToString();
  }
}

TEST(Theorem4Test, WitnessQueryAchievesClaimedFactor) {
  // (iv): for q = everything but the two extreme leaves,
  // error(H-bar_q) <= 3 / (2(ell-1)(k-1) - k) * error(H~_q).
  const std::int64_t n = 64;  // ell = 7, k = 2 -> bound factor 3/10
  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 1));
  UniversalOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;

  HierarchicalQuery query(n, 2);
  const double ell = static_cast<double>(query.tree().height());
  const double k = 2.0;
  LaplaceMechanism mechanism(options.epsilon);
  Interval witness(1, n - 2);

  Rng rng(9);
  RunningStat err_ht, err_hb;
  for (int t = 0; t < 3000; ++t) {
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    HTildeEstimator ht(n, options, noisy);
    HBarEstimator hb(n, options, noisy);
    double truth = data.Count(witness);
    double dt = ht.RangeCount(witness) - truth;
    double db = hb.RangeCount(witness) - truth;
    err_ht.Add(dt * dt);
    err_hb.Add(db * db);
  }
  double bound = 3.0 / (2.0 * (ell - 1.0) * (k - 1.0) - k);
  EXPECT_LT(err_hb.Mean() / err_ht.Mean(), bound * 1.25)
      << "measured ratio " << err_hb.Mean() / err_ht.Mean()
      << " vs bound " << bound;

  // Cross-check error(H~_q) against its closed form:
  // (2(k-1)(ell-1) - k) subtrees x 2 ell^2 / eps^2 per count.
  double expected_ht =
      (2.0 * (k - 1.0) * (ell - 1.0) - k) * 2.0 * ell * ell;
  EXPECT_NEAR(err_ht.Mean(), expected_ht, expected_ht * 0.1);
  // And the decomposition really is that large.
  EXPECT_EQ(static_cast<double>(DecomposeRange(query.tree(), witness).size()),
            2.0 * (k - 1.0) * (ell - 1.0) - k);
}

TEST(Theorem4Test, HBarRangeErrorIsPolyLogEverywhere) {
  // (iii): error(H-bar_q) = O(ell^3 / eps^2) for all q. Measure the worst
  // observed error over a size sweep and compare with c * ell^3.
  const std::int64_t n = 256;  // ell = 9
  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 3));
  UniversalOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;

  HierarchicalQuery query(n, 2);
  LaplaceMechanism mechanism(options.epsilon);
  Rng rng(10);
  double worst = 0.0;
  for (std::int64_t size : Fig6RangeSizes(n)) {
    RunningStat err;
    for (int t = 0; t < 400; ++t) {
      std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
      HBarEstimator hb(n, options, noisy);
      std::vector<Interval> ranges = RandomRangesOfSize(n, size, 5, &rng);
      for (const Interval& q : ranges) {
        double d = hb.RangeCount(q) - data.Count(q);
        err.Add(d * d);
      }
    }
    worst = std::max(worst, err.Mean());
  }
  double ell = static_cast<double>(query.tree().height());
  EXPECT_LT(worst, 4.0 * ell * ell * ell);
}

}  // namespace
}  // namespace dphist
