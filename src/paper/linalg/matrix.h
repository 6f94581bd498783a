// Dense row-major matrix and vector helpers.
//
// This is a deliberately small linear-algebra kernel: the paper's closed
// forms (Theorems 1 and 3) are the production path, and this module exists
// to (a) solve the generic equality-constrained least-squares problems of
// Section 2.2 / the intro's grades example, and (b) cross-validate the
// closed forms against textbook OLS in tests. Sizes are therefore modest
// and clarity wins over blocking/vectorization tricks.

#ifndef DPHIST_PAPER_LINALG_MATRIX_H_
#define DPHIST_PAPER_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace dphist::linalg {

/// Column vector; plain std::vector<double> for interoperability with the
/// rest of the library.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// A rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  /// Builds a matrix from a row-major brace list, e.g.
  /// Matrix::FromRows({{1, 0}, {0, 1}}). Rows must be equal length.
  static Matrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// The n x n identity.
  static Matrix Identity(std::size_t n);

  /// A diagonal matrix with the given entries.
  static Matrix Diagonal(const Vector& entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access (no bounds check in release; DPHIST_DCHECKed).
  double& operator()(std::size_t i, std::size_t j);
  double operator()(std::size_t i, std::size_t j) const;

  /// The transpose.
  Matrix Transpose() const;

  /// Matrix product this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product this * v. Requires cols() == v.size().
  Vector Multiply(const Vector& v) const;

  /// Componentwise sum. Requires equal shapes.
  Matrix Add(const Matrix& other) const;

  /// Componentwise difference. Requires equal shapes.
  Matrix Subtract(const Matrix& other) const;

  /// Scalar multiple.
  Matrix Scale(double factor) const;

  /// Largest absolute entry.
  double MaxAbs() const;

  /// Human-readable rendering for test failure messages.
  std::string ToString() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Dot product. Requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Componentwise a + b. Requires equal sizes.
Vector Add(const Vector& a, const Vector& b);

/// Componentwise a - b. Requires equal sizes.
Vector Subtract(const Vector& a, const Vector& b);

/// Scalar multiple of a vector.
Vector Scale(const Vector& a, double factor);

/// Euclidean norm.
double Norm2(const Vector& a);

}  // namespace dphist::linalg

#endif  // DPHIST_PAPER_LINALG_MATRIX_H_
