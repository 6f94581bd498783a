#include "paper/domain/grid.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dphist {
namespace {

TEST(RectTest, BasicAccessorsAndArea) {
  Rect r(1, 3, 2, 5);
  EXPECT_EQ(r.row_lo(), 1);
  EXPECT_EQ(r.row_hi(), 3);
  EXPECT_EQ(r.col_lo(), 2);
  EXPECT_EQ(r.col_hi(), 5);
  EXPECT_EQ(r.Area(), 12);
}

TEST(RectTest, ContainsAndCovers) {
  Rect outer(0, 9, 0, 9);
  Rect inner(2, 4, 3, 6);
  EXPECT_TRUE(outer.Covers(inner));
  EXPECT_FALSE(inner.Covers(outer));
  EXPECT_TRUE(inner.Contains(3, 4));
  EXPECT_FALSE(inner.Contains(1, 4));
  EXPECT_FALSE(inner.Contains(3, 7));
}

TEST(RectTest, Overlaps) {
  Rect a(0, 4, 0, 4);
  EXPECT_TRUE(a.Overlaps(Rect(4, 8, 4, 8)));   // corner touch
  EXPECT_FALSE(a.Overlaps(Rect(5, 8, 0, 4)));  // below
  EXPECT_FALSE(a.Overlaps(Rect(0, 4, 5, 8)));  // right
  EXPECT_TRUE(a.Overlaps(Rect(2, 3, 2, 3)));   // inside
}

TEST(RectTest, EqualityAndToString) {
  EXPECT_EQ(Rect(0, 1, 2, 3), Rect(0, 1, 2, 3));
  EXPECT_FALSE(Rect(0, 1, 2, 3) == Rect(0, 1, 2, 4));
  EXPECT_EQ(Rect(0, 1, 2, 3).ToString(), "[0..1] x [2..3]");
}

TEST(RectDeathTest, RejectsEmpty) {
  EXPECT_DEATH(Rect(2, 1, 0, 0), "lo <= hi");
  EXPECT_DEATH(Rect(0, 0, 5, 4), "lo <= hi");
}

TEST(GridHistogramTest, ZeroConstructionAndShape) {
  GridHistogram g(3, 5, "geo");
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 5);
  EXPECT_EQ(g.attribute(), "geo");
  EXPECT_DOUBLE_EQ(g.Total(), 0.0);
  EXPECT_EQ(g.FullRect(), Rect(0, 2, 0, 4));
}

TEST(GridHistogramTest, FromCountsRowMajor) {
  GridHistogram g = GridHistogram::FromCounts(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(g.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.At(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.At(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(g.At(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(g.Total(), 21.0);
}

TEST(GridHistogramTest, RectCountsByHand) {
  GridHistogram g = GridHistogram::FromCounts(3, 3,
                                              {1, 2, 3,
                                               4, 5, 6,
                                               7, 8, 9});
  EXPECT_DOUBLE_EQ(g.Count(Rect(0, 0, 0, 0)), 1.0);
  EXPECT_DOUBLE_EQ(g.Count(Rect(0, 1, 0, 1)), 12.0);   // 1+2+4+5
  EXPECT_DOUBLE_EQ(g.Count(Rect(1, 2, 1, 2)), 28.0);   // 5+6+8+9
  EXPECT_DOUBLE_EQ(g.Count(Rect(0, 2, 1, 1)), 15.0);   // column 1
  EXPECT_DOUBLE_EQ(g.Count(Rect(2, 2, 0, 2)), 24.0);   // row 2
}

TEST(GridHistogramTest, MutationInvalidatesPrefix) {
  GridHistogram g(2, 2);
  EXPECT_DOUBLE_EQ(g.Count(g.FullRect()), 0.0);
  g.Set(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(g.Count(g.FullRect()), 5.0);
  g.Increment(1, 1, 2.5);
  EXPECT_DOUBLE_EQ(g.Count(g.FullRect()), 7.5);
  EXPECT_DOUBLE_EQ(g.Count(Rect(1, 1, 1, 1)), 2.5);
}

TEST(GridHistogramTest, RandomRectsAgreeWithNaiveSum) {
  Rng rng(31);
  const std::int64_t rows = 17, cols = 23;
  GridHistogram g(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      g.Set(r, c, rng.NextUniform(0, 5));
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::int64_t r0 = rng.NextInt(0, rows - 1);
    std::int64_t r1 = rng.NextInt(r0, rows - 1);
    std::int64_t c0 = rng.NextInt(0, cols - 1);
    std::int64_t c1 = rng.NextInt(c0, cols - 1);
    double naive = 0.0;
    for (std::int64_t r = r0; r <= r1; ++r) {
      for (std::int64_t c = c0; c <= c1; ++c) naive += g.At(r, c);
    }
    EXPECT_NEAR(g.Count(Rect(r0, r1, c0, c1)), naive, 1e-9);
  }
}

TEST(GridHistogramDeathTest, OutOfBoundsRejected) {
  GridHistogram g(2, 2);
  EXPECT_DEATH(g.At(2, 0), "");
  EXPECT_DEATH(g.Count(Rect(0, 2, 0, 1)), "outside the grid");
}

}  // namespace
}  // namespace dphist
