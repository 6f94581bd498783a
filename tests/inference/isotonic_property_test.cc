// Property-based sweep for the isotonic-regression implementations: for
// random noisy vectors, the PAVA output must be (a) non-decreasing,
// (b) idempotent, and (c) the L2 projection onto the monotone cone —
// certified structurally: the output is block-constant with each block
// at the (weighted) mean of its inputs, and no single merge of adjacent
// blocks or split of one block into two feasible sub-blocks improves the
// objective. The same invariant sweep runs against the Theorem 1
// min-max closed form (minmax_isotonic.h), which must agree with PAVA
// exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "paper/inference/isotonic.h"
#include "paper/inference/minmax_isotonic.h"

namespace dphist {
namespace {

constexpr double kTol = 1e-9;

double Objective(const std::vector<double>& fitted,
                 const std::vector<double>& values,
                 const std::vector<double>& weights) {
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double d = fitted[i] - values[i];
    total += weights[i] * d * d;
  }
  return total;
}

bool IsNonDecreasing(const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1] - kTol) return false;
  }
  return true;
}

/// Maximal constant blocks [begin, end) of a fitted vector.
struct Block {
  std::size_t begin;
  std::size_t end;
};
std::vector<Block> BlocksOf(const std::vector<double>& fitted) {
  std::vector<Block> blocks;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= fitted.size(); ++i) {
    if (i == fitted.size() || std::abs(fitted[i] - fitted[begin]) > kTol) {
      blocks.push_back({begin, i});
      begin = i;
    }
  }
  return blocks;
}

double WeightedMean(const std::vector<double>& values,
                    const std::vector<double>& weights, std::size_t begin,
                    std::size_t end) {
  double sum = 0.0;
  double weight = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += weights[i] * values[i];
    weight += weights[i];
  }
  return sum / weight;
}

/// Asserts the full optimality certificate of the L2 projection onto the
/// monotone cone for `fitted` against (`values`, `weights`).
void ExpectIsProjection(const std::vector<double>& fitted,
                        const std::vector<double>& values,
                        const std::vector<double>& weights) {
  ASSERT_EQ(fitted.size(), values.size());
  EXPECT_TRUE(IsNonDecreasing(fitted));

  const double objective = Objective(fitted, values, weights);
  std::vector<Block> blocks = BlocksOf(fitted);

  // Each block sits at the weighted mean of its inputs (the stationarity
  // condition: shifting a whole block is feasible in both directions, so
  // the block value must minimize the unconstrained block objective).
  for (const Block& block : blocks) {
    EXPECT_NEAR(fitted[block.begin],
                WeightedMean(values, weights, block.begin, block.end), 1e-7);
  }

  // No single merge of adjacent blocks improves the objective. The merged
  // value (combined weighted mean) lies between the two block values, so
  // the merged vector is still monotone — a legal competitor.
  for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
    std::vector<double> merged = fitted;
    const double mean =
        WeightedMean(values, weights, blocks[b].begin, blocks[b + 1].end);
    for (std::size_t i = blocks[b].begin; i < blocks[b + 1].end; ++i) {
      merged[i] = mean;
    }
    EXPECT_TRUE(IsNonDecreasing(merged));
    EXPECT_GE(Objective(merged, values, weights) + kTol, objective)
        << "merging blocks " << b << " and " << b + 1 << " improved";
  }

  // No single split of one block into two sub-blocks at their own means
  // improves the objective, whenever that split is feasible (left mean
  // <= right mean and the new values respect the neighboring blocks).
  // For the true projection every feasible split is non-improving; PAVA
  // theory says feasible splits only exist with equal means.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t cut = blocks[b].begin + 1; cut < blocks[b].end; ++cut) {
      const double left = WeightedMean(values, weights, blocks[b].begin, cut);
      const double right = WeightedMean(values, weights, cut, blocks[b].end);
      std::vector<double> split = fitted;
      for (std::size_t i = blocks[b].begin; i < cut; ++i) split[i] = left;
      for (std::size_t i = cut; i < blocks[b].end; ++i) split[i] = right;
      if (!IsNonDecreasing(split)) continue;  // infeasible competitor
      EXPECT_GE(Objective(split, values, weights) + kTol, objective)
          << "splitting block " << b << " at " << cut << " improved";
    }
  }
}

std::vector<double> RandomVector(Rng* rng, std::size_t size) {
  std::vector<double> values(size);
  for (double& v : values) v = rng->NextGaussian() * 10.0;
  // Ties and plateaus stress the pooling logic; inject some.
  for (std::size_t i = 1; i < size; ++i) {
    if (rng->NextBernoulli(0.2)) values[i] = values[i - 1];
  }
  return values;
}

TEST(IsotonicPropertyTest, RandomVectorsProjectOntoMonotoneCone) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.NextInt(1, 50));
    std::vector<double> values = RandomVector(&rng, size);
    std::vector<double> unit_weights(size, 1.0);

    std::vector<double> fitted = IsotonicRegression(values);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectIsProjection(fitted, values, unit_weights);

    // Idempotence: a monotone vector is its own projection.
    std::vector<double> twice = IsotonicRegression(fitted);
    ASSERT_EQ(twice.size(), fitted.size());
    for (std::size_t i = 0; i < fitted.size(); ++i) {
      EXPECT_NEAR(twice[i], fitted[i], kTol);
    }
  }
}

TEST(IsotonicPropertyTest, WeightedRandomVectorsProject) {
  Rng rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.NextInt(1, 40));
    std::vector<double> values = RandomVector(&rng, size);
    std::vector<double> weights(size);
    for (double& w : weights) w = rng.NextUniform(0.1, 5.0);

    std::vector<double> fitted = WeightedIsotonicRegression(values, weights);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectIsProjection(fitted, values, weights);

    std::vector<double> twice = WeightedIsotonicRegression(fitted, weights);
    for (std::size_t i = 0; i < fitted.size(); ++i) {
      EXPECT_NEAR(twice[i], fitted[i], kTol);
    }
  }
}

TEST(IsotonicPropertyTest, AntitonicIsReversedIsotonic) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.NextInt(1, 40));
    std::vector<double> values = RandomVector(&rng, size);

    std::vector<double> antitonic = AntitonicRegression(values);
    std::vector<double> reversed(values.rbegin(), values.rend());
    std::vector<double> via_isotonic = IsotonicRegression(reversed);
    std::reverse(via_isotonic.begin(), via_isotonic.end());
    ASSERT_EQ(antitonic.size(), via_isotonic.size());
    for (std::size_t i = 0; i < antitonic.size(); ++i) {
      EXPECT_NEAR(antitonic[i], via_isotonic[i], kTol) << i;
    }
  }
}

// The same invariant sweep for the Theorem 1 min-max closed form: both
// formulas must equal each other and the PAVA projection, so the minmax
// output inherits every certificate above.
TEST(IsotonicPropertyTest, MinMaxClosedFormSatisfiesSameInvariants) {
  Rng rng(555);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t size = static_cast<std::size_t>(rng.NextInt(1, 30));
    std::vector<double> values = RandomVector(&rng, size);
    std::vector<double> unit_weights(size, 1.0);

    std::vector<double> lower = MinMaxLowerSolution(values);
    std::vector<double> upper = MinMaxUpperSolution(values);
    std::vector<double> pava = IsotonicRegression(values);
    ASSERT_EQ(lower.size(), size);
    ASSERT_EQ(upper.size(), size);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (std::size_t i = 0; i < size; ++i) {
      // Theorem 1: L_k = U_k = s-bar[k].
      EXPECT_NEAR(lower[i], upper[i], 1e-7) << i;
      EXPECT_NEAR(lower[i], pava[i], 1e-7) << i;
    }
    ExpectIsProjection(lower, values, unit_weights);

    // Idempotence of the closed form itself.
    std::vector<double> twice = MinMaxLowerSolution(lower);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_NEAR(twice[i], lower[i], 1e-7) << i;
    }
  }
}

}  // namespace
}  // namespace dphist
