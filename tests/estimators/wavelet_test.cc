#include "estimators/wavelet.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"

namespace dphist {
namespace {

TEST(HaarTransformTest, TwoElementBasis) {
  std::vector<double> coefficients = HaarTransform({3.0, 1.0});
  ASSERT_EQ(coefficients.size(), 2u);
  EXPECT_DOUBLE_EQ(coefficients[0], 2.0);  // average
  EXPECT_DOUBLE_EQ(coefficients[1], 1.0);  // (3-1)/2
}

TEST(HaarTransformTest, KnownFourElementDecomposition) {
  // values = {4, 2, 5, 1}: avg = 3; root detail = ((3) - (3))/2 = 0;
  // left detail = (4-2)/2 = 1; right detail = (5-1)/2 = 2.
  std::vector<double> coefficients = HaarTransform({4, 2, 5, 1});
  ASSERT_EQ(coefficients.size(), 4u);
  EXPECT_DOUBLE_EQ(coefficients[0], 3.0);
  EXPECT_DOUBLE_EQ(coefficients[1], 0.0);
  EXPECT_DOUBLE_EQ(coefficients[2], 1.0);
  EXPECT_DOUBLE_EQ(coefficients[3], 2.0);
}

TEST(HaarTransformTest, RoundTripsRandomVectors) {
  Rng rng(1);
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 1024u}) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.NextUniform(-10, 10);
    std::vector<double> back = InverseHaarTransform(HaarTransform(values));
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], values[i], 1e-9);
    }
  }
}

TEST(HaarTransformTest, LinearityOfTransform) {
  Rng rng(2);
  std::vector<double> a(16), b(16), sum(16);
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = rng.NextUniform(-5, 5);
    b[i] = rng.NextUniform(-5, 5);
    sum[i] = a[i] + b[i];
  }
  std::vector<double> ta = HaarTransform(a);
  std::vector<double> tb = HaarTransform(b);
  std::vector<double> tsum = HaarTransform(sum);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(tsum[i], ta[i] + tb[i], 1e-10);
  }
}

TEST(HaarTransformDeathTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(HaarTransform({1.0, 2.0, 3.0}), "power of two");
}

TEST(HaarSensitivityTest, WeightedSensitivityFormula) {
  EXPECT_DOUBLE_EQ(HaarWeightedSensitivity(2), 2.0);
  EXPECT_DOUBLE_EQ(HaarWeightedSensitivity(1024), 11.0);
  EXPECT_DOUBLE_EQ(HaarWeightedSensitivity(65536), 17.0);
}

TEST(HaarSensitivityTest, EmpiricalWeightedNeighborDelta) {
  // One record at any position must change the *weighted* coefficient
  // vector by exactly 1 + log2(n) in L1 (the Privelet invariant that
  // calibrates the noise).
  const std::size_t n = 64;
  Rng rng(3);
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextUniform(0, 10);
  std::vector<double> base = HaarTransform(values);
  for (std::size_t pos : {0u, 5u, 31u, 63u}) {
    std::vector<double> neighbor = values;
    neighbor[pos] += 1.0;
    std::vector<double> shifted = HaarTransform(neighbor);
    double weighted_l1 =
        std::abs(shifted[0] - base[0]) * static_cast<double>(n);
    std::size_t level_start = 1;
    std::size_t block = n;
    while (level_start < n) {
      for (std::size_t i = level_start; i < 2 * level_start; ++i) {
        weighted_l1 += std::abs(shifted[i] - base[i]) *
                       static_cast<double>(block);
      }
      block /= 2;
      level_start *= 2;
    }
    EXPECT_NEAR(weighted_l1, HaarWeightedSensitivity(n), 1e-9) << pos;
  }
}

TEST(WaveletEstimatorTest, UnbiasedRangeAnswers) {
  Histogram data = Histogram::FromCounts({5, 0, 3, 7, 0, 0, 2, 9});
  WaveletOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  Rng rng(4);
  Interval q(1, 6);
  double truth = data.Count(q);
  RunningStat stat;
  for (int t = 0; t < 6000; ++t) {
    WaveletEstimator est(data, options, &rng);
    stat.Add(est.RangeCount(q));
  }
  EXPECT_NEAR(stat.Mean(), truth, 0.5);
}

TEST(WaveletEstimatorTest, PadsNonPowerOfTwoDomains) {
  Histogram data = Histogram::FromCounts({1, 2, 3, 4, 5});
  WaveletOptions options;
  options.round_to_nonnegative_integers = false;
  Rng rng(5);
  WaveletEstimator est(data, options, &rng);
  EXPECT_EQ(est.padded_size(), 8);
  EXPECT_EQ(est.leaf_estimates().size(), 5u);
  // Full-domain query stays close to the truth at eps = 1.
  EXPECT_NEAR(est.RangeCount(Interval(0, 4)), 15.0, 40.0);
}

TEST(WaveletEstimatorTest, RoundingClampsAnswers) {
  Histogram data = Histogram::FromCounts({0, 0, 0, 0});
  WaveletOptions options;
  options.epsilon = 0.5;
  Rng rng(6);
  for (int t = 0; t < 50; ++t) {
    WaveletEstimator est(data, options, &rng);
    double answer = est.RangeCount(Interval(0, 3));
    EXPECT_GE(answer, 0.0);
    EXPECT_DOUBLE_EQ(answer, std::round(answer));
  }
}

TEST(WaveletEstimatorTest, ErrorComparableToBinaryHTheory) {
  // Li et al.'s equivalence (paper Section 6): the wavelet error for
  // range queries is within a small constant of the binary H~ error
  // O(log^3 n / eps^2). Check the measured error against that envelope.
  const std::int64_t n = 256;  // log2 = 8
  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 2));
  WaveletOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  Rng rng(7);
  RunningStat err;
  Interval q(17, 200);  // awkwardly aligned range
  double truth = data.Count(q);
  for (int t = 0; t < 3000; ++t) {
    WaveletEstimator est(data, options, &rng);
    double d = est.RangeCount(q) - truth;
    err.Add(d * d);
  }
  double log_n = std::log2(static_cast<double>(n));
  EXPECT_LT(err.Mean(), 4.0 * log_n * log_n * log_n);
  EXPECT_GT(err.Mean(), 0.05 * log_n * log_n * log_n);
}

}  // namespace
}  // namespace dphist
