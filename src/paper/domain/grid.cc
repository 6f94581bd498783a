#include "paper/domain/grid.h"

#include "common/check.h"

namespace dphist {

Rect::Rect(std::int64_t row_lo, std::int64_t row_hi, std::int64_t col_lo,
           std::int64_t col_hi)
    : row_lo_(row_lo), row_hi_(row_hi), col_lo_(col_lo), col_hi_(col_hi) {
  DPHIST_CHECK_MSG(row_lo <= row_hi && col_lo <= col_hi,
                   "rect requires lo <= hi on both axes");
}

std::string Rect::ToString() const {
  return "[" + std::to_string(row_lo_) + ".." + std::to_string(row_hi_) +
         "] x [" + std::to_string(col_lo_) + ".." + std::to_string(col_hi_) +
         "]";
}

GridHistogram::GridHistogram(std::int64_t rows, std::int64_t cols,
                             std::string attribute)
    : rows_(rows),
      cols_(cols),
      attribute_(std::move(attribute)),
      counts_(static_cast<std::size_t>(rows * cols), 0.0) {
  DPHIST_CHECK_MSG(rows > 0 && cols > 0, "grid must be non-empty");
}

GridHistogram GridHistogram::FromCounts(
    std::int64_t rows, std::int64_t cols,
    const std::vector<std::int64_t>& counts, std::string attribute) {
  DPHIST_CHECK(static_cast<std::int64_t>(counts.size()) == rows * cols);
  GridHistogram grid(rows, cols, std::move(attribute));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    grid.counts_[i] = static_cast<double>(counts[i]);
  }
  return grid;
}

double GridHistogram::At(std::int64_t row, std::int64_t col) const {
  DPHIST_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  return counts_[static_cast<std::size_t>(row * cols_ + col)];
}

void GridHistogram::Set(std::int64_t row, std::int64_t col, double count) {
  DPHIST_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  counts_[static_cast<std::size_t>(row * cols_ + col)] = count;
  prefix_valid_ = false;
}

void GridHistogram::Increment(std::int64_t row, std::int64_t col,
                              double delta) {
  DPHIST_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  counts_[static_cast<std::size_t>(row * cols_ + col)] += delta;
  prefix_valid_ = false;
}

void GridHistogram::EnsurePrefix() const {
  if (prefix_valid_) return;
  std::size_t stride = static_cast<std::size_t>(cols_) + 1;
  prefix_.assign((static_cast<std::size_t>(rows_) + 1) * stride, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      std::size_t ur = static_cast<std::size_t>(r);
      std::size_t uc = static_cast<std::size_t>(c);
      prefix_[(ur + 1) * stride + (uc + 1)] =
          counts_[ur * static_cast<std::size_t>(cols_) + uc] +
          prefix_[ur * stride + (uc + 1)] + prefix_[(ur + 1) * stride + uc] -
          prefix_[ur * stride + uc];
    }
  }
  prefix_valid_ = true;
}

double GridHistogram::Count(const Rect& rect) const {
  DPHIST_CHECK_MSG(ContainsRect(rect), "rect query outside the grid");
  EnsurePrefix();
  std::size_t stride = static_cast<std::size_t>(cols_) + 1;
  auto p = [&](std::int64_t r, std::int64_t c) {
    return prefix_[static_cast<std::size_t>(r) * stride +
                   static_cast<std::size_t>(c)];
  };
  return p(rect.row_hi() + 1, rect.col_hi() + 1) -
         p(rect.row_lo(), rect.col_hi() + 1) -
         p(rect.row_hi() + 1, rect.col_lo()) + p(rect.row_lo(), rect.col_lo());
}

double GridHistogram::Total() const { return Count(FullRect()); }

}  // namespace dphist
