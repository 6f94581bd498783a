// The parallel experiment runners must be bit-identical to the sequential
// run: trial Rngs are forked up front in trial order and partial results
// merged deterministically, so the thread count can never change a cell.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "paper/data/social_network.h"
#include "paper/estimators/unattributed.h"
#include "paper/experiments/runner.h"
#include "tests/experiments/golden_cells.h"

namespace dphist {
namespace {

Histogram TestData() {
  SocialNetworkConfig config;
  config.num_nodes = 300;
  config.edges_per_node = 3;
  return GenerateSocialNetworkDegrees(config);
}

TEST(ParallelRunnerTest, UniversalCellsBitIdenticalAcrossThreadCounts) {
  Histogram data = TestData();
  UniversalExperimentConfig config;
  config.epsilons = {1.0, 0.1};
  config.trials = 6;
  config.ranges_per_size = 50;

  config.threads = 1;
  std::vector<UniversalCell> sequential = RunUniversalExperiment(data, config);
  ASSERT_FALSE(sequential.empty());
  for (std::int64_t threads : {4, 8}) {
    config.threads = threads;
    std::vector<UniversalCell> parallel = RunUniversalExperiment(data, config);
    ASSERT_EQ(parallel.size(), sequential.size()) << threads << " threads";
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].epsilon, sequential[i].epsilon);
      EXPECT_EQ(parallel[i].estimator, sequential[i].estimator);
      EXPECT_EQ(parallel[i].range_size, sequential[i].range_size);
      // Bit-identical, not merely close.
      EXPECT_EQ(parallel[i].avg_squared_error, sequential[i].avg_squared_error)
          << "cell " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelRunnerTest, UnattributedCellsBitIdenticalAcrossThreadCounts) {
  Histogram data = TestData();
  UnattributedExperimentConfig config;
  config.epsilons = {1.0, 0.01};
  config.trials = 8;

  config.threads = 1;
  std::vector<UnattributedCell> sequential =
      RunUnattributedExperiment(data, config);
  ASSERT_FALSE(sequential.empty());
  for (std::int64_t threads : {4, 8}) {
    config.threads = threads;
    std::vector<UnattributedCell> parallel =
        RunUnattributedExperiment(data, config);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].epsilon, sequential[i].epsilon);
      EXPECT_EQ(parallel[i].estimator, sequential[i].estimator);
      EXPECT_EQ(parallel[i].total_squared_error,
                sequential[i].total_squared_error)
          << "cell " << i << " at " << threads << " threads";
      EXPECT_EQ(parallel[i].per_count_error, sequential[i].per_count_error);
    }
  }
}

TEST(ParallelRunnerTest, HardwareConcurrencyKnobAlsoBitIdentical) {
  Histogram data = TestData();
  UniversalExperimentConfig config;
  config.epsilons = {0.1};
  config.trials = 3;
  config.ranges_per_size = 20;

  config.threads = 1;
  std::vector<UniversalCell> sequential = RunUniversalExperiment(data, config);
  config.threads = 0;  // hardware concurrency
  std::vector<UniversalCell> parallel = RunUniversalExperiment(data, config);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].avg_squared_error, sequential[i].avg_squared_error);
  }
}

// ---- Golden-file regression (committed fixed-seed expected outputs) ----
//
// The runners must reproduce tests/experiments/golden_cells.h bit for
// bit — at 1 thread AND at 8 threads, since the parallel merge is
// deterministic by design. Regenerate (after an intentional protocol
// change) with DPHIST_PRINT_GOLDEN=1.

UniversalExperimentConfig GoldenUniversalConfig(std::int64_t threads) {
  UniversalExperimentConfig config;
  config.epsilons = {1.0, 0.1};
  config.trials = 5;
  config.ranges_per_size = 40;
  config.threads = threads;
  return config;
}

UnattributedExperimentConfig GoldenUnattributedConfig(std::int64_t threads) {
  UnattributedExperimentConfig config;
  config.epsilons = {1.0, 0.01};
  config.trials = 6;
  config.threads = threads;
  return config;
}

bool PrintGoldenRequested() {
  const char* env = std::getenv("DPHIST_PRINT_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(GoldenCellsTest, UniversalRunnerReproducesGoldenBitForBit) {
  Histogram data = TestData();
  for (std::int64_t threads : {1, 8}) {
    std::vector<UniversalCell> cells =
        RunUniversalExperiment(data, GoldenUniversalConfig(threads));
    if (PrintGoldenRequested() && threads == 1) {
      for (const UniversalCell& c : cells) {
        std::printf("    {%a, \"%s\", %lld, %a},\n", c.epsilon,
                    c.estimator.c_str(),
                    static_cast<long long>(c.range_size),
                    c.avg_squared_error);
      }
    }
    ASSERT_EQ(cells.size(), std::size(golden::kUniversalCells))
        << threads << " threads";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const golden::GoldenUniversalCell& want = golden::kUniversalCells[i];
      EXPECT_EQ(cells[i].epsilon, want.epsilon) << i;
      EXPECT_EQ(cells[i].estimator, want.estimator) << i;
      EXPECT_EQ(cells[i].range_size, want.range_size) << i;
      // Bit-identical, not merely close.
      EXPECT_EQ(cells[i].avg_squared_error, want.avg_squared_error)
          << "cell " << i << " (" << cells[i].estimator << ", eps "
          << cells[i].epsilon << ", size " << cells[i].range_size << ") at "
          << threads << " threads";
    }
  }
}

TEST(GoldenCellsTest, UnattributedRunnerReproducesGoldenBitForBit) {
  Histogram data = TestData();
  for (std::int64_t threads : {1, 8}) {
    std::vector<UnattributedCell> cells =
        RunUnattributedExperiment(data, GoldenUnattributedConfig(threads));
    if (PrintGoldenRequested() && threads == 1) {
      for (const UnattributedCell& c : cells) {
        std::printf("    {%a, UnattributedEstimator(%d), %a, %a},\n",
                    c.epsilon, static_cast<int>(c.estimator),
                    c.total_squared_error, c.per_count_error);
      }
    }
    ASSERT_EQ(cells.size(), std::size(golden::kUnattributedCells))
        << threads << " threads";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const golden::GoldenUnattributedCell& want =
          golden::kUnattributedCells[i];
      EXPECT_EQ(cells[i].epsilon, want.epsilon) << i;
      EXPECT_EQ(cells[i].estimator, want.estimator) << i;
      EXPECT_EQ(cells[i].total_squared_error, want.total_squared_error)
          << "cell " << i << " at " << threads << " threads";
      EXPECT_EQ(cells[i].per_count_error, want.per_count_error)
          << "cell " << i << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dphist
