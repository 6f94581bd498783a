#include "paper/inference/graphical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "paper/data/social_network.h"
#include "paper/estimators/unattributed.h"
#include "inference/nonnegative_pruning.h"

namespace dphist {
namespace {

// Independent oracle: Havel-Hakimi realizability test.
bool HavelHakimi(std::vector<std::int64_t> degrees) {
  const std::int64_t n = static_cast<std::int64_t>(degrees.size());
  for (std::int64_t d : degrees) {
    if (d < 0 || d >= n) return false;
  }
  while (true) {
    std::sort(degrees.begin(), degrees.end(), std::greater<std::int64_t>());
    if (degrees.empty() || degrees[0] == 0) return true;
    std::int64_t d = degrees[0];
    if (d >= static_cast<std::int64_t>(degrees.size())) return false;
    degrees.erase(degrees.begin());
    for (std::int64_t i = 0; i < d; ++i) {
      if (--degrees[static_cast<std::size_t>(i)] < 0) return false;
    }
  }
}

TEST(GraphicalTest, KnownGraphicalSequences) {
  EXPECT_TRUE(IsGraphicalDegreeSequence({}));
  EXPECT_TRUE(IsGraphicalDegreeSequence({0}));
  EXPECT_TRUE(IsGraphicalDegreeSequence({1, 1}));
  EXPECT_TRUE(IsGraphicalDegreeSequence({2, 2, 2}));           // triangle
  EXPECT_TRUE(IsGraphicalDegreeSequence({3, 3, 3, 3}));        // K4
  EXPECT_TRUE(IsGraphicalDegreeSequence({2, 2, 1, 1}));        // path
  EXPECT_TRUE(IsGraphicalDegreeSequence({3, 2, 2, 2, 1}));
  EXPECT_TRUE(IsGraphicalDegreeSequence({0, 0, 0, 0}));
}

TEST(GraphicalTest, KnownNonGraphicalSequences) {
  EXPECT_FALSE(IsGraphicalDegreeSequence({1}));         // odd sum
  EXPECT_FALSE(IsGraphicalDegreeSequence({3, 1}));      // d >= n
  EXPECT_FALSE(IsGraphicalDegreeSequence({2, 2, 1}));   // odd sum
  EXPECT_FALSE(IsGraphicalDegreeSequence({3, 3, 3, 1}));  // EG violated
  EXPECT_FALSE(IsGraphicalDegreeSequence({-1, 1}));     // negative
  EXPECT_FALSE(IsGraphicalDegreeSequence({4, 4, 4, 1, 1}));
}

TEST(GraphicalTest, OrderIrrelevant) {
  EXPECT_TRUE(IsGraphicalDegreeSequence({1, 2, 2, 1}));
  EXPECT_FALSE(IsGraphicalDegreeSequence({1, 3, 3, 3}));
}

TEST(GraphicalTest, AgreesWithHavelHakimiOnRandomSequences) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::int64_t n = rng.NextInt(1, 24);
    std::vector<std::int64_t> degrees(static_cast<std::size_t>(n));
    for (auto& d : degrees) d = rng.NextInt(0, n - 1);
    EXPECT_EQ(IsGraphicalDegreeSequence(degrees), HavelHakimi(degrees))
        << "trial " << trial;
  }
}

TEST(GraphicalTest, RealGraphDegreesAreGraphical) {
  SocialNetworkConfig config;
  config.num_nodes = 500;
  Histogram degrees = GenerateSocialNetworkDegrees(config);
  std::vector<std::int64_t> d(degrees.counts().size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::int64_t>(degrees.counts()[i]);
  }
  EXPECT_TRUE(IsGraphicalDegreeSequence(d));
}

TEST(RepairTest, GraphicalInputUnchanged) {
  std::vector<std::int64_t> triangle = {2, 2, 2};
  EXPECT_EQ(RepairToGraphical(triangle), triangle);
  std::vector<std::int64_t> path = {1, 2, 2, 1};
  EXPECT_EQ(RepairToGraphical(path), path);
}

TEST(RepairTest, FixesParity) {
  std::vector<std::int64_t> odd = {2, 2, 1};
  std::vector<std::int64_t> fixed = RepairToGraphical(odd);
  EXPECT_TRUE(IsGraphicalDegreeSequence(fixed));
  // One unit of change suffices.
  std::int64_t l1 = 0;
  for (std::size_t i = 0; i < odd.size(); ++i) {
    l1 += std::abs(fixed[i] - odd[i]);
  }
  EXPECT_EQ(l1, 1);
}

TEST(RepairTest, ClampsOutOfRangeValues) {
  std::vector<std::int64_t> wild = {99, -5, 2, 1};
  std::vector<std::int64_t> fixed = RepairToGraphical(wild);
  EXPECT_TRUE(IsGraphicalDegreeSequence(fixed));
  EXPECT_GE(*std::min_element(fixed.begin(), fixed.end()), 0);
  EXPECT_LT(*std::max_element(fixed.begin(), fixed.end()), 4);
}

TEST(RepairTest, ResolvesErdosGallaiViolations) {
  std::vector<std::int64_t> bad = {3, 3, 3, 1};
  std::vector<std::int64_t> fixed = RepairToGraphical(bad);
  EXPECT_TRUE(IsGraphicalDegreeSequence(fixed));
}

TEST(RepairTest, RandomSequencesAlwaysRepaired) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::int64_t n = rng.NextInt(1, 40);
    std::vector<std::int64_t> degrees(static_cast<std::size_t>(n));
    for (auto& d : degrees) d = rng.NextInt(-2, n + 2);
    std::vector<std::int64_t> fixed = RepairToGraphical(degrees);
    EXPECT_TRUE(IsGraphicalDegreeSequence(fixed)) << "trial " << trial;
    EXPECT_TRUE(HavelHakimi(fixed)) << "trial " << trial;
  }
}

TEST(RepairTest, PreservesPositions) {
  // The hub stays the hub: repair adjusts values, not the ranking.
  std::vector<std::int64_t> degrees = {1, 5, 1, 1};  // 5 >= n, clamp to 3
  std::vector<std::int64_t> fixed = RepairToGraphical(degrees);
  EXPECT_TRUE(IsGraphicalDegreeSequence(fixed));
  EXPECT_EQ(*std::max_element(fixed.begin(), fixed.end()), fixed[1]);
}

TEST(RepairTest, EndToEndPrivateDegreeSequenceRelease) {
  // Appendix B pipeline: S-bar -> round -> graphical repair. The repaired
  // release must be a valid degree sequence and stay close to S-bar.
  SocialNetworkConfig config;
  config.num_nodes = 400;
  Histogram degrees = GenerateSocialNetworkDegrees(config);
  Rng rng(3);
  std::vector<double> noisy = SampleNoisySortedCounts(degrees, 0.1, &rng);
  std::vector<double> sbar =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  std::vector<double> rounded = RoundToNonNegativeIntegers(sbar);
  std::vector<std::int64_t> release(rounded.size());
  for (std::size_t i = 0; i < rounded.size(); ++i) {
    release[i] = static_cast<std::int64_t>(rounded[i]);
  }
  std::vector<std::int64_t> graphical = RepairToGraphical(release);
  EXPECT_TRUE(IsGraphicalDegreeSequence(graphical));
  // Repair cost is small relative to the sequence mass.
  std::int64_t l1 = 0;
  for (std::size_t i = 0; i < release.size(); ++i) {
    l1 += std::abs(graphical[i] - release[i]);
  }
  EXPECT_LT(static_cast<double>(l1), 0.05 * degrees.Total());
}

}  // namespace
}  // namespace dphist
