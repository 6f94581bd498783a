#include "paper/estimators/blum_histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "data/zipf.h"

namespace dphist {
namespace {

Histogram UniformData(std::int64_t n, std::int64_t per_position) {
  return Histogram::FromCounts(std::vector<std::int64_t>(
      static_cast<std::size_t>(n), per_position));
}

TEST(BlumHistogramTest, BoundariesAreSortedAndInRange) {
  Histogram data = UniformData(256, 10);
  BlumHistogramConfig config;
  config.num_bins = 8;
  Rng rng(1);
  BlumEquiDepthHistogram est(data, config, &rng);
  const auto& bounds = est.boundaries();
  ASSERT_EQ(bounds.size(), 8u);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_GE(bounds[i], 0);
    EXPECT_LT(bounds[i], 256);
    if (i > 0) {
      EXPECT_GT(bounds[i], bounds[i - 1]);
    }
  }
  EXPECT_EQ(bounds.back(), 255);
}

TEST(BlumHistogramTest, TotalMassMatchesEstimate) {
  Histogram data = UniformData(128, 5);
  BlumHistogramConfig config;
  config.num_bins = 4;
  Rng rng(2);
  BlumEquiDepthHistogram est(data, config, &rng);
  EXPECT_NEAR(est.RangeCount(Interval(0, 127)), est.estimated_total(), 1e-6);
}

TEST(BlumHistogramTest, UniformDataAnsweredWell) {
  // Equi-depth histograms are exact (up to noise) on uniform data.
  const std::int64_t n = 512;
  Histogram data = UniformData(n, 20);
  BlumHistogramConfig config;
  config.epsilon = 5.0;  // low noise: isolate the representation error
  config.num_bins = 16;
  Rng rng(3);
  BlumEquiDepthHistogram est(data, config, &rng);
  for (std::int64_t lo = 0; lo + 64 <= n; lo += 64) {
    Interval q(lo, lo + 63);
    double truth = data.Count(q);
    EXPECT_NEAR(est.RangeCount(q), truth, 0.15 * truth);
  }
}

TEST(BlumHistogramTest, SingleBinSpreadsUniformly) {
  Histogram data = UniformData(64, 2);
  BlumHistogramConfig config;
  config.num_bins = 1;
  config.epsilon = 10.0;
  Rng rng(4);
  BlumEquiDepthHistogram est(data, config, &rng);
  // Half the domain should carry about half the (noisy) total.
  EXPECT_NEAR(est.RangeCount(Interval(0, 31)), est.estimated_total() / 2.0,
              1.0);
}

TEST(BlumHistogramTest, ErrorGrowsWithDatabaseSize) {
  // Appendix E's point: BLR's absolute range error grows with N while the
  // per-query noise of H~ does not depend on N. Scale the same shape by
  // 16x and watch the absolute error rise.
  Rng data_rng(5);
  std::vector<std::int64_t> small_counts =
      ZipfCounts(256, 1.2, 2000, &data_rng);
  std::vector<std::int64_t> large_counts = small_counts;
  for (auto& c : large_counts) c *= 16;
  Histogram small = Histogram::FromCounts(small_counts);
  Histogram large = Histogram::FromCounts(large_counts);

  BlumHistogramConfig config;
  config.num_bins = 8;
  RunningStat err_small, err_large;
  Rng rng(6);
  for (int t = 0; t < 30; ++t) {
    BlumEquiDepthHistogram est_small(small, config, &rng);
    BlumEquiDepthHistogram est_large(large, config, &rng);
    for (std::int64_t lo = 0; lo + 32 <= 256; lo += 32) {
      Interval q(lo, lo + 31);
      err_small.Add(std::abs(est_small.RangeCount(q) - small.Count(q)));
      err_large.Add(std::abs(est_large.RangeCount(q) - large.Count(q)));
    }
  }
  EXPECT_GT(err_large.Mean(), 4.0 * err_small.Mean());
}

TEST(BlumHistogramTest, MoreBinsThanPositionsClamped) {
  Histogram data = UniformData(4, 3);
  BlumHistogramConfig config;
  config.num_bins = 100;
  Rng rng(7);
  BlumEquiDepthHistogram est(data, config, &rng);
  EXPECT_LE(est.boundaries().size(), 4u);
}

TEST(UsefulnessBoundsTest, HTildeBoundFormula) {
  // n = 65536 -> ell = 17; check the closed form directly.
  double bound = HTildeUsefulDatabaseSize(65536, 0.05, 0.05, 1.0);
  double ell = 17.0;
  double expected =
      16.0 * std::pow(ell, 1.5) * std::log(2.0 * 65536.0 * 65536.0 / 0.05) /
      (0.05 * 1.0);
  EXPECT_NEAR(bound, expected, 1e-6);
}

TEST(UsefulnessBoundsTest, HTildeScalesBetterInAlphaThanBlum) {
  // Appendix E: H~ needs N ~ 1/alpha while BLR needs N ~ 1/alpha^3, so
  // tightening alpha by 10x should widen the gap by ~100x.
  double h_1 = HTildeUsefulDatabaseSize(65536, 0.05, 0.05, 1.0);
  double h_01 = HTildeUsefulDatabaseSize(65536, 0.05, 0.05, 0.1);
  double b_1 = BlumUsefulDatabaseSize(65536, 0.05, 0.05, 1.0);
  double b_01 = BlumUsefulDatabaseSize(65536, 0.05, 0.05, 0.1);
  EXPECT_NEAR(h_01 / h_1, 10.0, 1e-6);
  EXPECT_NEAR(b_01 / b_1, 1000.0, 1e-6);
}

TEST(UsefulnessBoundsTest, BothGrowSlowlyInDomainSize) {
  // Poly-log in n: jumping n by 16x should far less than double the
  // bounds.
  double h_small = HTildeUsefulDatabaseSize(4096, 0.05, 0.05, 0.5);
  double h_large = HTildeUsefulDatabaseSize(65536, 0.05, 0.05, 0.5);
  EXPECT_LT(h_large, 2.0 * h_small);
  double b_small = BlumUsefulDatabaseSize(4096, 0.05, 0.05, 0.5);
  double b_large = BlumUsefulDatabaseSize(65536, 0.05, 0.05, 0.5);
  EXPECT_LT(b_large, 2.0 * b_small);
}

}  // namespace
}  // namespace dphist
