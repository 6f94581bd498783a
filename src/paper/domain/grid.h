// Two-dimensional domains: grids, rectangles, and grid histograms.
//
// Appendix B lists "extend the technique for universal histograms to
// multi-dimensional range queries" as future work; this module provides
// the 2-D substrate (the analogue of interval.h/histogram.h) for the
// quadtree-based implementation in tree/quadtree.h and
// estimators/universal2d.h.

#ifndef DPHIST_PAPER_DOMAIN_GRID_H_
#define DPHIST_PAPER_DOMAIN_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dphist {

/// Inclusive axis-aligned rectangle of grid cells.
class Rect {
 public:
  /// Constructs [row_lo..row_hi] x [col_lo..col_hi]; checked non-empty.
  Rect(std::int64_t row_lo, std::int64_t row_hi, std::int64_t col_lo,
       std::int64_t col_hi);

  std::int64_t row_lo() const { return row_lo_; }
  std::int64_t row_hi() const { return row_hi_; }
  std::int64_t col_lo() const { return col_lo_; }
  std::int64_t col_hi() const { return col_hi_; }

  /// Number of cells covered.
  std::int64_t Area() const {
    return (row_hi_ - row_lo_ + 1) * (col_hi_ - col_lo_ + 1);
  }

  /// True iff the cell (row, col) lies inside.
  bool Contains(std::int64_t row, std::int64_t col) const {
    return row_lo_ <= row && row <= row_hi_ && col_lo_ <= col &&
           col <= col_hi_;
  }

  /// True iff `other` lies fully inside this rectangle.
  bool Covers(const Rect& other) const {
    return row_lo_ <= other.row_lo_ && other.row_hi_ <= row_hi_ &&
           col_lo_ <= other.col_lo_ && other.col_hi_ <= col_hi_;
  }

  /// True iff the two rectangles share at least one cell.
  bool Overlaps(const Rect& other) const {
    return row_lo_ <= other.row_hi_ && other.row_lo_ <= row_hi_ &&
           col_lo_ <= other.col_hi_ && other.col_lo_ <= col_hi_;
  }

  bool operator==(const Rect& other) const {
    return row_lo_ == other.row_lo_ && row_hi_ == other.row_hi_ &&
           col_lo_ == other.col_lo_ && col_hi_ == other.col_hi_;
  }

  /// Renders "[r0..r1] x [c0..c1]".
  std::string ToString() const;

 private:
  std::int64_t row_lo_;
  std::int64_t row_hi_;
  std::int64_t col_lo_;
  std::int64_t col_hi_;
};

/// Counts over a rows x cols grid with O(1) rectangle sums (2-D prefix
/// table, rebuilt lazily after mutation).
class GridHistogram {
 public:
  /// A zero grid of the given shape (both dimensions > 0).
  GridHistogram(std::int64_t rows, std::int64_t cols,
                std::string attribute = "cell");

  /// Builds from row-major counts; counts.size() must be rows * cols.
  static GridHistogram FromCounts(std::int64_t rows, std::int64_t cols,
                                  const std::vector<std::int64_t>& counts,
                                  std::string attribute = "cell");

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  const std::string& attribute() const { return attribute_; }

  /// The full grid as a rectangle.
  Rect FullRect() const { return Rect(0, rows_ - 1, 0, cols_ - 1); }

  /// True iff the rectangle lies inside the grid.
  bool ContainsRect(const Rect& rect) const {
    return rect.row_lo() >= 0 && rect.row_hi() < rows_ &&
           rect.col_lo() >= 0 && rect.col_hi() < cols_;
  }

  /// Count at a cell (checked).
  double At(std::int64_t row, std::int64_t col) const;

  /// Sets the count at a cell (checked).
  void Set(std::int64_t row, std::int64_t col, double count);

  /// Adds delta at a cell (checked).
  void Increment(std::int64_t row, std::int64_t col, double delta = 1.0);

  /// The 2-D counting query: sum of counts inside `rect`.
  double Count(const Rect& rect) const;

  /// Sum of all counts.
  double Total() const;

  /// Row-major counts.
  const std::vector<double>& counts() const { return counts_; }

 private:
  void EnsurePrefix() const;

  std::int64_t rows_;
  std::int64_t cols_;
  std::string attribute_;
  std::vector<double> counts_;
  /// prefix_[(r+1) * (cols_+1) + (c+1)] = sum over [0..r] x [0..c].
  mutable std::vector<double> prefix_;
  mutable bool prefix_valid_ = false;
};

}  // namespace dphist

#endif  // DPHIST_PAPER_DOMAIN_GRID_H_
