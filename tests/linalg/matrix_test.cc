#include "paper/linalg/matrix.h"

#include <gtest/gtest.h>

namespace dphist::linalg {
namespace {

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(MatrixTest, FromRowsLaysOutValues) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
}

TEST(MatrixTest, IdentityMultiplicationIsIdentity) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix i = Matrix::Identity(2);
  Matrix left = i.Multiply(a);
  Matrix right = a.Multiply(i);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(left(r, c), a(r, c));
      EXPECT_DOUBLE_EQ(right(r, c), a(r, c));
    }
  }
}

TEST(MatrixTest, KnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix p = a.Multiply(b);
  EXPECT_DOUBLE_EQ(p(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 50.0);
}

TEST(MatrixTest, RectangularProductShapes) {
  Matrix a(2, 3);
  Matrix b(3, 4);
  Matrix p = a.Multiply(b);
  EXPECT_EQ(p.rows(), 2u);
  EXPECT_EQ(p.cols(), 4u);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a = Matrix::FromRows({{1, 0, 2}, {0, 3, 0}});
  Vector v = {1.0, 2.0, 3.0};
  Vector out = a.Multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 7.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  Matrix tt = t.Transpose();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(tt(i, j), a(i, j));
  }
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{4, 3}, {2, 1}});
  Matrix sum = a.Add(b);
  Matrix diff = a.Subtract(b);
  Matrix twice = a.Scale(2.0);
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(twice(1, 0), 6.0);
}

TEST(MatrixTest, DiagonalAndMaxAbs) {
  Matrix d = Matrix::Diagonal({1.0, -7.0, 2.0});
  EXPECT_DOUBLE_EQ(d(1, 1), -7.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.MaxAbs(), 7.0);
}

TEST(VectorOpsTest, DotAddSubtractScaleNorm) {
  Vector a = {1.0, 2.0, 2.0};
  Vector b = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  Vector s = Add(a, b);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  Vector d = Subtract(a, b);
  EXPECT_DOUBLE_EQ(d[0], -1.0);
  Vector sc = Scale(a, 3.0);
  EXPECT_DOUBLE_EQ(sc[2], 6.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
}

TEST(MatrixTest, ToStringContainsEntries) {
  Matrix a = Matrix::FromRows({{1, 2}});
  std::string s = a.ToString();
  EXPECT_NE(s.find('1'), std::string::npos);
  EXPECT_NE(s.find('2'), std::string::npos);
}

}  // namespace
}  // namespace dphist::linalg
