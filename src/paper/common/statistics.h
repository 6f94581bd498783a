// Streaming and batch statistics used by the experiment harness and tests.

#ifndef DPHIST_PAPER_COMMON_STATISTICS_H_
#define DPHIST_PAPER_COMMON_STATISTICS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace dphist {

/// Welford-style streaming accumulator for mean and variance.
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations so far.
  std::size_t count() const { return count_; }
  /// Sample mean; 0 when empty.
  double Mean() const;
  /// Unbiased sample variance; 0 with fewer than two observations.
  double Variance() const;
  /// Square root of Variance().
  double StdDev() const;
  /// Smallest observation; +inf when empty.
  double Min() const { return min_; }
  /// Largest observation; -inf when empty.
  double Max() const { return max_; }
  /// Sum of all observations.
  double Sum() const { return mean_ * static_cast<double>(count_); }

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStat& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean of `values`; 0 when empty.
double Mean(const std::vector<double>& values);

/// Unbiased sample variance of `values`; 0 with fewer than two elements.
double Variance(const std::vector<double>& values);

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation.
/// Requires a non-empty vector.
double Quantile(std::vector<double> values, double q);

/// Sum of squared differences between two equal-length vectors.
double SquaredError(const std::vector<double>& a, const std::vector<double>& b);

/// SquaredError / n: mean squared error per component.
double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b);

/// L1 distance between two equal-length vectors.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

/// L2 (Euclidean) distance between two equal-length vectors.
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);

/// Largest absolute componentwise difference.
double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b);

}  // namespace dphist

#endif  // DPHIST_PAPER_COMMON_STATISTICS_H_
