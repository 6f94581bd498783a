#include "paper/estimators/universal2d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/laplace.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/spatial.h"
#include "inference/hierarchical.h"
#include "tests/support/consistency.h"

namespace dphist {
namespace {

GridHistogram SmallGrid() {
  // 8x8 with two hot cells and empty corners.
  GridHistogram g(8, 8);
  g.Set(1, 1, 30.0);
  g.Set(6, 5, 12.0);
  g.Set(3, 4, 5.0);
  return g;
}

Universal2dOptions NoPostProcessing(double epsilon) {
  Universal2dOptions options;
  options.epsilon = epsilon;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  return options;
}

TEST(EvaluateQuadtreeCountsTest, RootIsTotalAndParentsSumChildren) {
  GridHistogram data = SmallGrid();
  QuadtreeLayout quad(8, 8);
  std::vector<double> counts = EvaluateQuadtreeCounts(quad, data);
  EXPECT_DOUBLE_EQ(counts[0], 47.0);
  EXPECT_LT(MaxConsistencyViolation(quad.tree(), counts), 1e-12);
  // Spot check: the quadrant holding (1,1) carries its mass.
  for (std::int64_t c : quad.tree().Children(0)) {
    if (quad.NodeRect(c).Contains(1, 1)) {
      EXPECT_DOUBLE_EQ(counts[static_cast<std::size_t>(c)], 30.0);
    }
  }
}

TEST(L2dTest, UnbiasedAndErrorScalesWithArea) {
  GridHistogram data = SmallGrid();
  Rng rng(1);
  RunningStat total_stat, err_small, err_large;
  Rect small(0, 1, 0, 1), large(0, 3, 0, 3);
  for (int t = 0; t < 4000; ++t) {
    L2dEstimator est(data, NoPostProcessing(1.0), &rng);
    total_stat.Add(est.RectCount(data.FullRect()));
    double ds = est.RectCount(small) - data.Count(small);
    double dl = est.RectCount(large) - data.Count(large);
    err_small.Add(ds * ds);
    err_large.Add(dl * dl);
  }
  EXPECT_NEAR(total_stat.Mean(), 47.0, 1.0);
  // Variance = 2 * area / eps^2.
  EXPECT_NEAR(err_small.Mean(), 8.0, 1.0);
  EXPECT_NEAR(err_large.Mean(), 32.0, 4.0);
}

TEST(Quad2dTildeTest, SensitivityScaledNoiseAtRoot) {
  GridHistogram data = SmallGrid();
  Rng rng(2);
  RunningStat root_stat;
  for (int t = 0; t < 4000; ++t) {
    Quad2dTildeEstimator est(data, NoPostProcessing(1.0), &rng);
    root_stat.Add(est.node_answers()[0]);
  }
  EXPECT_NEAR(root_stat.Mean(), 47.0, 1.0);
  // Height of an 8x8 quadtree is 4 -> variance 2 * 16 = 32.
  EXPECT_NEAR(root_stat.Variance(), 32.0, 4.0);
}

TEST(Quad2dTildeTest, AlignedRectUsesOneNode) {
  GridHistogram data = SmallGrid();
  Rng rng(3);
  Quad2dTildeEstimator est(data, NoPostProcessing(1.0), &rng);
  // The full grid is the root.
  EXPECT_NEAR(est.RectCount(Rect(0, 7, 0, 7)), est.node_answers()[0], 1e-9);
}

TEST(Quad2dBarTest, OutputConsistentWithoutPostProcessing) {
  GridHistogram data = SmallGrid();
  Rng rng(4);
  Quad2dBarEstimator est(data, NoPostProcessing(0.5), &rng);
  EXPECT_LT(MaxConsistencyViolation(est.quadtree().tree(),
                                    est.node_estimates()),
            1e-8);
}

TEST(Quad2dBarTest, NeverWorseThanQuadTildeOnAverage) {
  GridHistogram data = SmallGrid();
  Universal2dOptions options = NoPostProcessing(0.5);
  Rng rng(5);
  QuadtreeLayout quad(8, 8);
  std::vector<double> exact = EvaluateQuadtreeCounts(quad, data);
  LaplaceDistribution noise(static_cast<double>(quad.height()) /
                            options.epsilon);
  RunningStat err_tilde, err_bar;
  std::vector<Rect> queries = {Rect(0, 5, 1, 6), Rect(2, 3, 2, 7),
                               Rect(0, 7, 0, 3)};
  for (int t = 0; t < 1500; ++t) {
    std::vector<double> noisy = exact;
    for (double& v : noisy) v += noise.Sample(&rng);
    Quad2dBarEstimator bar(8, 8, options, noisy);
    // Tilde answers straight from the same noisy vector.
    for (const Rect& q : queries) {
      double truth = data.Count(q);
      double tilde_answer = 0.0;
      for (std::int64_t v : quad.DecomposeRect(q)) {
        tilde_answer += noisy[static_cast<std::size_t>(v)];
      }
      double dt = tilde_answer - truth;
      double db = bar.RectCount(q) - truth;
      err_tilde.Add(dt * dt);
      err_bar.Add(db * db);
    }
  }
  EXPECT_LT(err_bar.Mean(), err_tilde.Mean());
}

TEST(Quad2dBarTest, PruningZeroesEmptyQuadrants) {
  Universal2dOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = true;
  QuadtreeLayout quad(4, 4);
  // Hand-build: root positive, one quadrant strongly negative.
  std::vector<double> noisy(static_cast<std::size_t>(quad.node_count()),
                            1.0);
  noisy[0] = 10.0;
  // Find the quadrant containing (0,0) and make its subtree negative.
  std::int64_t target = -1;
  for (std::int64_t c : quad.tree().Children(0)) {
    if (quad.NodeRect(c).Contains(0, 0)) target = c;
  }
  noisy[static_cast<std::size_t>(target)] = -40.0;
  for (std::int64_t c : quad.tree().Children(target)) {
    noisy[static_cast<std::size_t>(c)] = -10.0;
  }
  Quad2dBarEstimator bar(4, 4, options, noisy);
  EXPECT_DOUBLE_EQ(bar.RectCount(Rect(0, 1, 0, 1)), 0.0);
}

TEST(Quad2dBarTest, RoundingYieldsIntegerAnswersOnAlignedBlocks) {
  GridHistogram data = SmallGrid();
  Universal2dOptions options;  // defaults: prune + round
  options.epsilon = 0.5;
  Rng rng(6);
  Quad2dBarEstimator bar(data, options, &rng);
  // Aligned blocks are answered by a single rounded node.
  double answer = bar.RectCount(Rect(0, 3, 0, 3));
  EXPECT_GE(answer, 0.0);
  EXPECT_DOUBLE_EQ(answer, std::round(answer));
}

TEST(SpatialDataTest, ShapeAndDeterminism) {
  SpatialConfig config;
  config.side = 64;
  config.num_points = 5000;
  GridHistogram a = GenerateSpatialBlobs(config);
  GridHistogram b = GenerateSpatialBlobs(config);
  EXPECT_EQ(a.rows(), 64);
  EXPECT_DOUBLE_EQ(a.Total(), 5000.0);
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(SpatialDataTest, MassConcentratesInClusters) {
  SpatialConfig config;
  config.side = 128;
  config.num_points = 20000;
  config.num_clusters = 4;
  config.uniform_fraction = 0.02;
  GridHistogram data = GenerateSpatialBlobs(config);
  // The densest 10% of cells should hold the bulk of the mass (Gaussian
  // blobs put ~87% of points within 2 sigma of the four centers, which
  // occupy well under a tenth of the grid).
  std::vector<double> cells = data.counts();
  std::sort(cells.begin(), cells.end(), std::greater<double>());
  double top = 0.0;
  std::size_t top_count = cells.size() / 10;
  for (std::size_t i = 0; i < top_count; ++i) top += cells[i];
  EXPECT_GT(top, 0.75 * data.Total());
}

TEST(EndToEnd2dTest, SpatialWorkloadInferenceWins) {
  SpatialConfig config;
  config.side = 64;
  config.num_points = 30000;
  GridHistogram data = GenerateSpatialBlobs(config);
  Universal2dOptions options = NoPostProcessing(0.2);
  Rng rng(7);
  RunningStat err_tilde, err_bar;
  for (int t = 0; t < 40; ++t) {
    Quad2dTildeEstimator tilde(data, options, &rng);
    Quad2dBarEstimator bar(data, options, &rng);
    for (int q = 0; q < 25; ++q) {
      std::int64_t r0 = rng.NextInt(0, 47);
      std::int64_t c0 = rng.NextInt(0, 47);
      Rect rect(r0, r0 + 15, c0, c0 + 15);
      double truth = data.Count(rect);
      double dt = tilde.RectCount(rect) - truth;
      double db = bar.RectCount(rect) - truth;
      err_tilde.Add(dt * dt);
      err_bar.Add(db * db);
    }
  }
  EXPECT_LT(err_bar.Mean(), err_tilde.Mean());
}

TEST(Universal2dTest, CreateFactoriesValidateInsteadOfAborting) {
  GridHistogram data = SmallGrid();
  Universal2dOptions options = NoPostProcessing(1.0);
  Rng rng(9);
  EXPECT_FALSE(L2dEstimator::Create(data, options, nullptr).ok());
  EXPECT_FALSE(Quad2dTildeEstimator::Create(data, options, nullptr).ok());
  EXPECT_FALSE(Quad2dBarEstimator::Create(data, options, nullptr).ok());
  Universal2dOptions bad = options;
  bad.epsilon = 0.0;
  EXPECT_FALSE(L2dEstimator::Create(data, bad, &rng).ok());
  EXPECT_FALSE(Quad2dBarEstimator::Create(data, bad, &rng).ok());
  auto l = L2dEstimator::Create(data, options, &rng);
  ASSERT_TRUE(l.ok());
  auto q = Quad2dTildeEstimator::Create(data, options, &rng);
  ASSERT_TRUE(q.ok());
  auto b = Quad2dBarEstimator::Create(data, options, &rng);
  ASSERT_TRUE(b.ok());
}

}  // namespace
}  // namespace dphist
