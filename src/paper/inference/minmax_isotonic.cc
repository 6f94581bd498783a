#include "paper/inference/minmax_isotonic.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dphist {
namespace {

/// prefix[i] = sum of values[0..i); makes any M~[i,j] an O(1) lookup.
std::vector<double> PrefixSums(const std::vector<double>& values) {
  std::vector<double> prefix(values.size() + 1, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  return prefix;
}

double MeanOf(const std::vector<double>& prefix, std::size_t i,
              std::size_t j) {
  // Mean of values[i..j] inclusive, 0-indexed.
  return (prefix[j + 1] - prefix[i]) / static_cast<double>(j - i + 1);
}

}  // namespace

std::vector<double> MinMaxLowerSolution(const std::vector<double>& values) {
  std::size_t n = values.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  std::vector<double> prefix = PrefixSums(values);

  // g[j] = max_{i <= j} mean(i, j), computed in O(n) per j.
  std::vector<double> g(n, -std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      g[j] = std::max(g[j], MeanOf(prefix, i, j));
    }
  }
  // L_k = min_{j >= k} g[j]: one suffix-min sweep.
  double suffix_min = std::numeric_limits<double>::infinity();
  for (std::size_t kk = n; kk > 0; --kk) {
    std::size_t k = kk - 1;
    suffix_min = std::min(suffix_min, g[k]);
    out[k] = suffix_min;
  }
  return out;
}

std::vector<double> MinMaxUpperSolution(const std::vector<double>& values) {
  std::size_t n = values.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  std::vector<double> prefix = PrefixSums(values);

  // f[i] = min_{j >= i} mean(i, j).
  std::vector<double> f(n, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      f[i] = std::min(f[i], MeanOf(prefix, i, j));
    }
  }
  // U_k = max_{i <= k} f[i]: one prefix-max sweep.
  double prefix_max = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    prefix_max = std::max(prefix_max, f[k]);
    out[k] = prefix_max;
  }
  return out;
}

}  // namespace dphist
