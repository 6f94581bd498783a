#include "paper/common/statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dphist {
namespace {

TEST(RunningStatTest, EmptyDefaults) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(RunningStatTest, SingleObservation) {
  RunningStat s;
  s.Add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 4.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
}

TEST(RunningStatTest, KnownMeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  // Population variance is 4; unbiased sample variance is 32/7.
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesCombinedStream) {
  RunningStat all, left, right;
  std::vector<double> xs = {1.5, -2.0, 3.25, 8.0, 0.0, -4.5, 2.25, 9.75};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.Add(xs[i]);
    (i < 4 ? left : right).Add(xs[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.Min(), all.Min());
  EXPECT_DOUBLE_EQ(left.Max(), all.Max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat a, empty;
  a.Add(1.0);
  a.Add(2.0);
  double mean = a.Mean();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.Mean(), mean);
  EXPECT_EQ(a.count(), 2u);

  RunningStat b;
  b.Merge(a);
  EXPECT_DOUBLE_EQ(b.Mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(BatchStatsTest, MeanAndVariance) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0}), 0.0);
}

TEST(BatchStatsTest, QuantileEndpointsAndMedian) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
}

TEST(BatchStatsTest, QuantileInterpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.75), 7.5);
}

TEST(DistanceTest, SquaredErrorAndMse) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {2.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(SquaredError(a, b), 1.0 + 4.0 + 0.0);
  EXPECT_DOUBLE_EQ(MeanSquaredError(a, b), 5.0 / 3.0);
}

TEST(DistanceTest, NormsOnKnownVectors) {
  std::vector<double> a = {0.0, 0.0};
  std::vector<double> b = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 4.0);
}

TEST(DistanceTest, IdenticalVectorsAreZeroApart) {
  std::vector<double> a = {1.5, -2.5, 0.0};
  EXPECT_DOUBLE_EQ(SquaredError(a, a), 0.0);
  EXPECT_DOUBLE_EQ(L1Distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(LInfDistance(a, a), 0.0);
}

}  // namespace
}  // namespace dphist
