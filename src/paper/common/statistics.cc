#include "paper/common/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace dphist {

void RunningStat::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::Mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::StdDev() const { return std::sqrt(Variance()); }

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  std::size_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mu = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - mu) * (v - mu);
  return ss / static_cast<double>(values.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  DPHIST_CHECK(!values.empty());
  DPHIST_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double SquaredError(const std::vector<double>& a,
                    const std::vector<double>& b) {
  DPHIST_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b) {
  DPHIST_CHECK(!a.empty());
  return SquaredError(a, b) / static_cast<double>(a.size());
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  DPHIST_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  return std::sqrt(SquaredError(a, b));
}

double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b) {
  DPHIST_CHECK(a.size() == b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace dphist
