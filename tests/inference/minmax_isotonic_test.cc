// Validates Theorem 1: the min-max formulas L_k and U_k agree with each
// other and with the PAVA projection, on both hand-worked and random
// inputs. This is the closed form the paper states; PAVA is the O(n)
// production algorithm.

#include "paper/inference/minmax_isotonic.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "paper/inference/isotonic.h"

namespace dphist {
namespace {

TEST(MinMaxIsotonicTest, PaperExample4Cases) {
  // <9, 14, 10> -> <9, 12, 12>.
  std::vector<double> lower = MinMaxLowerSolution({9, 14, 10});
  std::vector<double> upper = MinMaxUpperSolution({9, 14, 10});
  ASSERT_EQ(lower.size(), 3u);
  EXPECT_DOUBLE_EQ(lower[0], 9.0);
  EXPECT_DOUBLE_EQ(lower[1], 12.0);
  EXPECT_DOUBLE_EQ(lower[2], 12.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(lower[i], upper[i]);
  }

  // <14, 9, 10, 15> -> <11, 11, 11, 15>.
  lower = MinMaxLowerSolution({14, 9, 10, 15});
  EXPECT_DOUBLE_EQ(lower[0], 11.0);
  EXPECT_DOUBLE_EQ(lower[1], 11.0);
  EXPECT_DOUBLE_EQ(lower[2], 11.0);
  EXPECT_DOUBLE_EQ(lower[3], 15.0);
}

TEST(MinMaxIsotonicTest, SortedInputIsFixedPoint) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_EQ(MinMaxLowerSolution(v), v);
  EXPECT_EQ(MinMaxUpperSolution(v), v);
}

TEST(MinMaxIsotonicTest, EmptyInput) {
  EXPECT_TRUE(MinMaxLowerSolution({}).empty());
  EXPECT_TRUE(MinMaxUpperSolution({}).empty());
}

TEST(MinMaxIsotonicTest, SingleElement) {
  EXPECT_EQ(MinMaxLowerSolution({7.0}), (std::vector<double>{7.0}));
  EXPECT_EQ(MinMaxUpperSolution({7.0}), (std::vector<double>{7.0}));
}

class MinMaxAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxAgreementSweep, LowerEqualsUpperEqualsPava) {
  int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 101 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& x : v) x = rng.NextUniform(-25, 25);
    std::vector<double> lower = MinMaxLowerSolution(v);
    std::vector<double> upper = MinMaxUpperSolution(v);
    std::vector<double> pava = IsotonicRegression(v);
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(lower[i], upper[i], 1e-9) << "L_k != U_k at " << i;
      EXPECT_NEAR(lower[i], pava[i], 1e-9) << "min-max != PAVA at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinMaxAgreementSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 50, 100));

TEST(MinMaxIsotonicTest, AgreesWithPavaOnIntegerTies) {
  // Ties and plateaus are where index bookkeeping usually breaks.
  std::vector<double> v = {3, 3, 1, 1, 2, 2, 2, 0, 5, 5};
  std::vector<double> lower = MinMaxLowerSolution(v);
  std::vector<double> pava = IsotonicRegression(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(lower[i], pava[i], 1e-12);
  }
}

}  // namespace
}  // namespace dphist
