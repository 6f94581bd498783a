#include "paper/estimators/unattributed.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/social_network.h"

namespace dphist {
namespace {

Histogram PaperExample() { return Histogram::FromCounts({2, 0, 10, 2}); }

TEST(UnattributedTest, TrueSortedCountsMatchesExample) {
  EXPECT_EQ(TrueSortedCounts(PaperExample()),
            (std::vector<double>{0, 2, 2, 10}));
}

TEST(UnattributedTest, EstimatorNames) {
  EXPECT_EQ(UnattributedEstimatorName(UnattributedEstimator::kSTilde), "S~");
  EXPECT_EQ(UnattributedEstimatorName(UnattributedEstimator::kSTildeRounded),
            "S~r");
  EXPECT_EQ(UnattributedEstimatorName(UnattributedEstimator::kSBar), "S-bar");
}

TEST(UnattributedTest, NoisySampleHasRightLengthAndCenter) {
  Histogram data = PaperExample();
  Rng rng(1);
  RunningStat last;
  for (int t = 0; t < 5000; ++t) {
    std::vector<double> noisy = SampleNoisySortedCounts(data, 1.0, &rng);
    ASSERT_EQ(noisy.size(), 4u);
    last.Add(noisy[3]);
  }
  EXPECT_NEAR(last.Mean(), 10.0, 0.1);  // centered on S(I)[3]
}

TEST(UnattributedTest, STildeIsIdentity) {
  std::vector<double> noisy = {3.2, -1.0, 5.5};
  EXPECT_EQ(
      ApplyUnattributedEstimator(UnattributedEstimator::kSTilde, noisy),
      noisy);
}

TEST(UnattributedTest, STildeRoundedSortsAndRounds) {
  std::vector<double> noisy = {3.2, -1.0, 0.6};
  std::vector<double> fixed = ApplyUnattributedEstimator(
      UnattributedEstimator::kSTildeRounded, noisy);
  EXPECT_EQ(fixed, (std::vector<double>{0.0, 1.0, 3.0}));
}

TEST(UnattributedTest, SBarIsSorted) {
  std::vector<double> noisy = {5.0, 1.0, 4.0, 2.0};
  std::vector<double> fitted =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  EXPECT_TRUE(std::is_sorted(fitted.begin(), fitted.end()));
}

TEST(UnattributedTest, SBarBeatsSTildeOnDuplicateHeavyData) {
  // The headline Fig. 5 result at miniature scale: a degree sequence with
  // many duplicates, eps = 0.1, S-bar error should be far below S~ error.
  SocialNetworkConfig config;
  config.num_nodes = 1000;
  Histogram data = GenerateSocialNetworkDegrees(config);
  std::vector<double> truth = TrueSortedCounts(data);
  Rng rng(7);
  RunningStat err_stilde, err_sbar;
  for (int t = 0; t < 40; ++t) {
    std::vector<double> noisy = SampleNoisySortedCounts(data, 0.1, &rng);
    err_stilde.Add(SquaredError(
        ApplyUnattributedEstimator(UnattributedEstimator::kSTilde, noisy),
        truth));
    err_sbar.Add(SquaredError(
        ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy),
        truth));
  }
  // Order of magnitude improvement, as the paper reports.
  EXPECT_LT(err_sbar.Mean() * 10.0, err_stilde.Mean());
}

TEST(UnattributedTest, SBarNeverWorseThanSTilde) {
  // Projection property: guaranteed per-draw, not just on average.
  Histogram data = PaperExample();
  std::vector<double> truth = TrueSortedCounts(data);
  Rng rng(8);
  for (int t = 0; t < 200; ++t) {
    std::vector<double> noisy = SampleNoisySortedCounts(data, 0.5, &rng);
    double e_tilde = SquaredError(noisy, truth);
    double e_bar = SquaredError(
        ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy),
        truth);
    EXPECT_LE(e_bar, e_tilde + 1e-9);
  }
}

TEST(UnattributedTest, STildeErrorMatchesTheory) {
  // error(S~) = 2 n / eps^2.
  Histogram data = PaperExample();
  std::vector<double> truth = TrueSortedCounts(data);
  const double eps = 0.5;
  Rng rng(9);
  RunningStat err;
  for (int t = 0; t < 20000; ++t) {
    err.Add(SquaredError(SampleNoisySortedCounts(data, eps, &rng), truth));
  }
  double expected = 2.0 * 4.0 / (eps * eps);
  EXPECT_NEAR(err.Mean(), expected, expected * 0.05);
}

}  // namespace
}  // namespace dphist
