#include "paper/experiments/runner.h"

#include <gtest/gtest.h>

#include "paper/data/social_network.h"

namespace dphist {
namespace {

Histogram SmallDuplicateHeavyData() {
  SocialNetworkConfig config;
  config.num_nodes = 300;
  config.edges_per_node = 3;
  return GenerateSocialNetworkDegrees(config);
}

TEST(UnattributedRunnerTest, ProducesOneCellPerEpsilonEstimator) {
  UnattributedExperimentConfig config;
  config.epsilons = {1.0, 0.1};
  config.trials = 5;
  std::vector<UnattributedCell> cells =
      RunUnattributedExperiment(SmallDuplicateHeavyData(), config);
  EXPECT_EQ(cells.size(), 2u * 3u);
}

TEST(UnattributedRunnerTest, SBarBeatsSTildeInEveryCell) {
  UnattributedExperimentConfig config;
  config.epsilons = {0.1};
  config.trials = 10;
  std::vector<UnattributedCell> cells =
      RunUnattributedExperiment(SmallDuplicateHeavyData(), config);
  double err_stilde = 0.0, err_sbar = 0.0;
  for (const auto& cell : cells) {
    if (cell.estimator == UnattributedEstimator::kSTilde) {
      err_stilde = cell.total_squared_error;
    }
    if (cell.estimator == UnattributedEstimator::kSBar) {
      err_sbar = cell.total_squared_error;
    }
  }
  EXPECT_GT(err_stilde, 0.0);
  EXPECT_LT(err_sbar, err_stilde);
}

TEST(UnattributedRunnerTest, PerCountErrorIsTotalOverN) {
  UnattributedExperimentConfig config;
  config.epsilons = {1.0};
  config.trials = 3;
  Histogram data = SmallDuplicateHeavyData();
  std::vector<UnattributedCell> cells =
      RunUnattributedExperiment(data, config);
  for (const auto& cell : cells) {
    EXPECT_NEAR(cell.per_count_error,
                cell.total_squared_error / static_cast<double>(data.size()),
                1e-12);
  }
}

TEST(UnattributedRunnerTest, STildeMatchesClosedFormError) {
  // error(S~) = 2 n / eps^2 — the runner should reproduce it closely.
  UnattributedExperimentConfig config;
  config.epsilons = {0.5};
  config.trials = 200;
  Histogram data = SmallDuplicateHeavyData();
  std::vector<UnattributedCell> cells =
      RunUnattributedExperiment(data, config);
  double expected = 2.0 * static_cast<double>(data.size()) / 0.25;
  for (const auto& cell : cells) {
    if (cell.estimator == UnattributedEstimator::kSTilde) {
      EXPECT_NEAR(cell.total_squared_error, expected, expected * 0.12);
    }
  }
}

TEST(UnattributedRunnerTest, DeterministicGivenSeed) {
  UnattributedExperimentConfig config;
  config.trials = 3;
  Histogram data = SmallDuplicateHeavyData();
  auto a = RunUnattributedExperiment(data, config);
  auto b = RunUnattributedExperiment(data, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].total_squared_error, b[i].total_squared_error);
  }
}

TEST(UniversalRunnerTest, CellsCoverAllSizesAndEstimators) {
  UniversalExperimentConfig config;
  config.epsilons = {1.0};
  config.trials = 2;
  config.ranges_per_size = 10;
  Histogram data = SmallDuplicateHeavyData();  // 300 -> padded 512, ell=10
  std::vector<UniversalCell> cells = RunUniversalExperiment(data, config);
  // Fig6RangeSizes(300): 2,4,...,256 = 8 sizes; 3 estimators.
  EXPECT_EQ(cells.size(), 8u * 3u);
  for (const auto& cell : cells) {
    EXPECT_GE(cell.avg_squared_error, 0.0);
  }
}

TEST(UniversalRunnerTest, LTildeErrorScalesWithRangeSize) {
  UniversalExperimentConfig config;
  config.epsilons = {1.0};
  config.trials = 6;
  config.ranges_per_size = 100;
  config.round_to_nonnegative_integers = false;  // isolate the pure theory
  Histogram data = SmallDuplicateHeavyData();
  std::vector<UniversalCell> cells = RunUniversalExperiment(data, config);
  double err_2 = 0.0, err_256 = 0.0;
  for (const auto& cell : cells) {
    if (cell.estimator != "L~") continue;
    if (cell.range_size == 2) err_2 = cell.avg_squared_error;
    if (cell.range_size == 256) err_256 = cell.avg_squared_error;
  }
  // Theory: error grows linearly in range size, 128x here. Allow slack.
  EXPECT_GT(err_256, 40.0 * err_2);
}

TEST(UniversalRunnerTest, HBarNoWorseThanHTildeAtLargeRanges) {
  UniversalExperimentConfig config;
  config.epsilons = {0.1};
  config.trials = 6;
  config.ranges_per_size = 100;
  // Pure-inference comparison: the Section 4.2 pruning heuristic is for
  // sparse domains and would distort this dense degree sequence.
  config.prune_nonpositive_subtrees = false;
  config.round_to_nonnegative_integers = false;
  Histogram data = SmallDuplicateHeavyData();
  std::vector<UniversalCell> cells = RunUniversalExperiment(data, config);
  double err_ht = 0.0, err_hb = 0.0;
  std::int64_t largest = 0;
  for (const auto& cell : cells) largest = std::max(largest, cell.range_size);
  for (const auto& cell : cells) {
    if (cell.range_size != largest) continue;
    if (cell.estimator == "H~") err_ht = cell.avg_squared_error;
    if (cell.estimator == "H-bar") err_hb = cell.avg_squared_error;
  }
  EXPECT_LE(err_hb, err_ht * 1.05);
}

TEST(ErrorProfileTest, ShapesAndBaseline) {
  Histogram data = SmallDuplicateHeavyData();
  ErrorProfile profile = RunErrorProfile(data, 1.0, 20, 3);
  EXPECT_EQ(profile.true_sorted_descending.size(),
            static_cast<std::size_t>(data.size()));
  EXPECT_EQ(profile.sbar_error.size(), static_cast<std::size_t>(data.size()));
  EXPECT_DOUBLE_EQ(profile.stilde_error, 2.0);
  // Descending order.
  for (std::size_t i = 1; i < profile.true_sorted_descending.size(); ++i) {
    EXPECT_GE(profile.true_sorted_descending[i - 1],
              profile.true_sorted_descending[i]);
  }
}

TEST(ErrorProfileTest, UniformRunsHaveTinyError) {
  // A long constant stretch lets inference average noise away (Fig. 7's
  // message): mid-run error must be far below the S~ baseline.
  std::vector<std::int64_t> counts(200, 5);
  counts[0] = 50;  // one distinct big count
  Histogram data = Histogram::FromCounts(counts);
  ErrorProfile profile = RunErrorProfile(data, 1.0, 50, 4);
  // Middle of the uniform run (descending order puts the run at the tail).
  double mid_run_error = profile.sbar_error[100];
  EXPECT_LT(mid_run_error, profile.stilde_error / 4.0);
}

}  // namespace
}  // namespace dphist
