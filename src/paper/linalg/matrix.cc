#include "paper/linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace dphist::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  DPHIST_CHECK(rows > 0 && cols > 0);
}

Matrix Matrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  DPHIST_CHECK(rows.size() > 0);
  std::size_t n_cols = rows.begin()->size();
  DPHIST_CHECK(n_cols > 0);
  Matrix m(rows.size(), n_cols);
  std::size_t i = 0;
  for (const auto& row : rows) {
    DPHIST_CHECK_MSG(row.size() == n_cols, "ragged row in Matrix::FromRows");
    std::size_t j = 0;
    for (double v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

double& Matrix::operator()(std::size_t i, std::size_t j) {
  DPHIST_DCHECK(i < rows_ && j < cols_);
  return data_[i * cols_ + j];
}

double Matrix::operator()(std::size_t i, std::size_t j) const {
  DPHIST_DCHECK(i < rows_ && j < cols_);
  return data_[i * cols_ + j];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  DPHIST_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::Multiply(const Vector& v) const {
  DPHIST_CHECK(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    out[i] = sum;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  DPHIST_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  DPHIST_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

Matrix Matrix::Scale(double factor) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] * factor;
  }
  return out;
}

double Matrix::MaxAbs() const {
  double worst = 0.0;
  for (double v : data_) worst = std::max(worst, std::abs(v));
  return worst;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < cols_; ++j) {
      os << (*this)(i, j) << (j + 1 < cols_ ? ", " : "");
    }
    os << (i + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

double Dot(const Vector& a, const Vector& b) {
  DPHIST_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

Vector Add(const Vector& a, const Vector& b) {
  DPHIST_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Subtract(const Vector& a, const Vector& b) {
  DPHIST_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Scale(const Vector& a, double factor) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * factor;
  return out;
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

}  // namespace dphist::linalg
