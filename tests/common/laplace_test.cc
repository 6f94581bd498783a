#include "common/laplace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"

namespace dphist {
namespace {

TEST(LaplaceTest, VarianceFormula) {
  EXPECT_DOUBLE_EQ(LaplaceDistribution(1.0).Variance(), 2.0);
  EXPECT_DOUBLE_EQ(LaplaceDistribution(10.0).Variance(), 200.0);
  EXPECT_DOUBLE_EQ(LaplaceDistribution(0.5).Variance(), 0.5);
}

TEST(LaplaceTest, CdfAtZeroIsHalf) {
  LaplaceDistribution lap(3.0);
  EXPECT_DOUBLE_EQ(lap.Cdf(0.0), 0.5);
}

TEST(LaplaceTest, CdfMonotoneAndBounded) {
  LaplaceDistribution lap(1.0);
  double prev = 0.0;
  for (double x = -10.0; x <= 10.0; x += 0.25) {
    double c = lap.Cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(LaplaceTest, QuantileInvertsCdf) {
  LaplaceDistribution lap(1.7);
  for (double u = 0.05; u < 1.0; u += 0.05) {
    EXPECT_NEAR(lap.Cdf(lap.Quantile(u)), u, 1e-12);
  }
}

TEST(LaplaceTest, QuantileMedianIsZero) {
  LaplaceDistribution lap(4.0);
  EXPECT_NEAR(lap.Quantile(0.5), 0.0, 1e-12);
}

TEST(LaplaceTest, SampleMomentsMatchTheory) {
  LaplaceDistribution lap(2.0);
  Rng rng(99);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(lap.Sample(&rng));
  EXPECT_NEAR(stat.Mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.Variance(), lap.Variance(), lap.Variance() * 0.05);
}

TEST(LaplaceTest, SampleAbsMeanMatchesScale) {
  // E|Lap(b)| = b.
  LaplaceDistribution lap(3.0);
  Rng rng(100);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += std::abs(lap.Sample(&rng));
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(LaplaceTest, SampleVectorLengthAndIndependence) {
  LaplaceDistribution lap(1.0);
  Rng rng(101);
  std::vector<double> v(1000, 0.0);
  lap.AddSamplesTo(v.data(), v.size(), &rng);
  // Neighboring draws should not be identical.
  int identical = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] == v[i - 1]) ++identical;
  }
  EXPECT_EQ(identical, 0);
}

TEST(LaplaceTest, TailProbabilityExponential) {
  // P(|X| > t) = exp(-t/b).
  LaplaceDistribution lap(1.0);
  Rng rng(102);
  const int n = 200000;
  int exceed = 0;
  for (int i = 0; i < n; ++i) {
    if (std::abs(lap.Sample(&rng)) > 3.0) ++exceed;
  }
  double expected = std::exp(-3.0);
  EXPECT_NEAR(static_cast<double>(exceed) / n, expected, expected * 0.15);
}

class LaplaceScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceScaleSweep, SampledVarianceTracksScale) {
  double scale = GetParam();
  LaplaceDistribution lap(scale);
  Rng rng(7);
  RunningStat stat;
  for (int i = 0; i < 60000; ++i) stat.Add(lap.Sample(&rng));
  EXPECT_NEAR(stat.Variance(), 2.0 * scale * scale,
              2.0 * scale * scale * 0.08);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceScaleSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 5.0, 20.0, 100.0));

}  // namespace
}  // namespace dphist
