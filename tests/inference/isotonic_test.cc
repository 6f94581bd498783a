#include "paper/inference/isotonic.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "paper/common/statistics.h"

namespace dphist {
namespace {

bool IsNonDecreasing(const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1] - 1e-12) return false;
  }
  return true;
}

// ---- Example 4 of the paper ----

TEST(IsotonicTest, PaperExample4AlreadySorted) {
  // s~ = <9, 10, 14> is ordered, so s-bar = s~.
  std::vector<double> fitted = IsotonicRegression({9, 10, 14});
  EXPECT_EQ(fitted, (std::vector<double>{9, 10, 14}));
}

TEST(IsotonicTest, PaperExample4LastTwoOutOfOrder) {
  // s~ = <9, 14, 10> -> s-bar = <9, 12, 12>.
  std::vector<double> fitted = IsotonicRegression({9, 14, 10});
  ASSERT_EQ(fitted.size(), 3u);
  EXPECT_DOUBLE_EQ(fitted[0], 9.0);
  EXPECT_DOUBLE_EQ(fitted[1], 12.0);
  EXPECT_DOUBLE_EQ(fitted[2], 12.0);
}

TEST(IsotonicTest, PaperExample4FirstElementHigh) {
  // s~ = <14, 9, 10, 15> -> s-bar = <11, 11, 11, 15> with ||s~-s||^2 = 14.
  std::vector<double> fitted = IsotonicRegression({14, 9, 10, 15});
  ASSERT_EQ(fitted.size(), 4u);
  EXPECT_DOUBLE_EQ(fitted[0], 11.0);
  EXPECT_DOUBLE_EQ(fitted[1], 11.0);
  EXPECT_DOUBLE_EQ(fitted[2], 11.0);
  EXPECT_DOUBLE_EQ(fitted[3], 15.0);
  EXPECT_DOUBLE_EQ(SquaredError(fitted, {14, 9, 10, 15}), 14.0);
}

// ---- Structural properties ----

TEST(IsotonicTest, EmptyAndSingleton) {
  EXPECT_TRUE(IsotonicRegression({}).empty());
  EXPECT_EQ(IsotonicRegression({5.0}), (std::vector<double>{5.0}));
}

TEST(IsotonicTest, ConstantInputUnchanged) {
  std::vector<double> v(10, 3.25);
  EXPECT_EQ(IsotonicRegression(v), v);
}

TEST(IsotonicTest, ReverseSortedPoolsToMean) {
  std::vector<double> fitted = IsotonicRegression({5, 4, 3, 2, 1});
  for (double x : fitted) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(IsotonicTest, OutputIsSortedOnRandomInput) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(200);
    for (double& x : v) x = rng.NextUniform(-50, 50);
    EXPECT_TRUE(IsNonDecreasing(IsotonicRegression(v)));
  }
}

TEST(IsotonicTest, IdempotentOnRandomInput) {
  Rng rng(2);
  std::vector<double> v(100);
  for (double& x : v) x = rng.NextUniform(-10, 10);
  std::vector<double> once = IsotonicRegression(v);
  std::vector<double> twice = IsotonicRegression(once);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(twice[i], once[i], 1e-12);
  }
}

TEST(IsotonicTest, TranslationEquivariantLemma2) {
  // Lemma 2: shifting the input shifts the solution.
  Rng rng(3);
  std::vector<double> v(64);
  for (double& x : v) x = rng.NextUniform(-5, 5);
  std::vector<double> base = IsotonicRegression(v);
  const double delta = 17.5;
  std::vector<double> shifted = v;
  for (double& x : shifted) x += delta;
  std::vector<double> shifted_fit = IsotonicRegression(shifted);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(shifted_fit[i], base[i] + delta, 1e-10);
  }
}

TEST(IsotonicTest, PreservesTotalMass) {
  // Pooling replaces runs by their mean, so the sum is invariant.
  Rng rng(4);
  std::vector<double> v(128);
  double total = 0.0;
  for (double& x : v) {
    x = rng.NextUniform(-20, 20);
    total += x;
  }
  std::vector<double> fitted = IsotonicRegression(v);
  double fitted_total = 0.0;
  for (double x : fitted) fitted_total += x;
  EXPECT_NEAR(fitted_total, total, 1e-8);
}

TEST(IsotonicTest, MatchesBruteForceOnTinyInputs) {
  // Exhaustive check against a fine grid search for n = 3.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v = {rng.NextUniform(0, 4), rng.NextUniform(0, 4),
                             rng.NextUniform(0, 4)};
    std::vector<double> fitted = IsotonicRegression(v);
    double best = SquaredError(fitted, v);
    // Grid search over sorted triples.
    for (double a = 0.0; a <= 4.0; a += 0.05) {
      for (double b = a; b <= 4.0; b += 0.05) {
        for (double c = b; c <= 4.0; c += 0.05) {
          double err = (a - v[0]) * (a - v[0]) + (b - v[1]) * (b - v[1]) +
                       (c - v[2]) * (c - v[2]);
          EXPECT_GE(err + 1e-9, best);
        }
      }
    }
  }
}

TEST(IsotonicTest, ProjectionIsNonExpansiveTowardSortedTargets) {
  // For any sorted target t (a feasible point of the cone),
  // ||s-bar - t|| <= ||s~ - t||: projection onto a convex set never moves
  // away from feasible points. This is the "inference cannot hurt"
  // property of Section 3.2.
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> noisy(50), target(50);
    for (double& x : noisy) x = rng.NextUniform(-10, 10);
    double level = -20.0;
    for (double& x : target) {
      level += rng.NextUniform(0, 2);
      x = level;
    }
    std::vector<double> fitted = IsotonicRegression(noisy);
    EXPECT_LE(SquaredError(fitted, target),
              SquaredError(noisy, target) + 1e-9);
  }
}

// ---- Weighted variant ----

TEST(WeightedIsotonicTest, UnitWeightsMatchUnweighted) {
  Rng rng(7);
  std::vector<double> v(40);
  for (double& x : v) x = rng.NextUniform(-3, 3);
  std::vector<double> w(v.size(), 1.0);
  EXPECT_EQ(WeightedIsotonicRegression(v, w), IsotonicRegression(v));
}

TEST(WeightedIsotonicTest, HeavyWeightDominatesPool) {
  // Pooling {10 (w=99), 0 (w=1)} lands near 10, not at the midpoint.
  std::vector<double> fitted =
      WeightedIsotonicRegression({10.0, 0.0}, {99.0, 1.0});
  EXPECT_NEAR(fitted[0], 9.9, 1e-12);
  EXPECT_NEAR(fitted[1], 9.9, 1e-12);
}

TEST(WeightedIsotonicTest, WeightedMeanWithinPooledBlock) {
  std::vector<double> fitted =
      WeightedIsotonicRegression({4.0, 2.0}, {1.0, 3.0});
  // Pooled mean = (4*1 + 2*3) / 4 = 2.5.
  EXPECT_DOUBLE_EQ(fitted[0], 2.5);
  EXPECT_DOUBLE_EQ(fitted[1], 2.5);
}

TEST(WeightedIsotonicDeathTest, RejectsNonPositiveWeights) {
  EXPECT_DEATH(WeightedIsotonicRegression({1.0, 2.0}, {1.0, 0.0}),
               "positive");
}

// ---- Antitonic ----

TEST(AntitonicTest, MirrorsIsotonic) {
  std::vector<double> v = {1, 5, 3, 4, 2};
  std::vector<double> anti = AntitonicRegression(v);
  // Must be non-increasing.
  for (std::size_t i = 1; i < anti.size(); ++i) {
    EXPECT_GE(anti[i - 1] + 1e-12, anti[i]);
  }
  // Reversing input and output must match plain isotonic regression.
  std::vector<double> reversed(v.rbegin(), v.rend());
  std::vector<double> iso = IsotonicRegression(reversed);
  std::vector<double> iso_reversed(iso.rbegin(), iso.rend());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(anti[i], iso_reversed[i], 1e-12);
  }
}

class IsotonicSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(IsotonicSizeSweep, SortedAndNoFartherThanInput) {
  int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 13 + 5);
  // True sorted sequence with duplicates (the Theorem 2 regime).
  std::vector<double> truth(static_cast<std::size_t>(n));
  double level = 0.0;
  for (auto& x : truth) {
    if (rng.NextBernoulli(0.2)) level += rng.NextInt(1, 3);
    x = level;
  }
  std::vector<double> noisy(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    noisy[i] = truth[i] + rng.NextUniform(-2, 2);
  }
  std::vector<double> fitted = IsotonicRegression(noisy);
  EXPECT_TRUE(IsNonDecreasing(fitted));
  EXPECT_LE(SquaredError(fitted, truth), SquaredError(noisy, truth) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IsotonicSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 50, 500, 5000));

}  // namespace
}  // namespace dphist
