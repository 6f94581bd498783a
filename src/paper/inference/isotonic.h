// Isotonic regression: the constrained-inference step for the sorted query
// S (Section 3.1).
//
// Given the noisy answer s~ the analyst seeks the vector s-bar minimizing
// ||s~ - s||_2 subject to s[i] <= s[i+1]. The paper gives the min-max
// closed form (Theorem 1) and notes the statistics literature's linear-time
// algorithms; this module implements the classic pool-adjacent-violators
// algorithm (PAVA, Barlow et al. 1972), which computes the same unique
// minimizer in O(n). minmax_isotonic.h evaluates Theorem 1's formula
// directly so tests can confirm the two agree.

#ifndef DPHIST_PAPER_INFERENCE_ISOTONIC_H_
#define DPHIST_PAPER_INFERENCE_ISOTONIC_H_

#include <vector>

namespace dphist {

/// The unique non-decreasing vector closest to `values` in L2.
/// O(n) time, O(n) space. Empty input yields empty output.
std::vector<double> IsotonicRegression(const std::vector<double>& values);

/// Weighted variant: minimizes sum_i w[i] (s[i] - values[i])^2 subject to
/// s non-decreasing. Requires weights.size() == values.size() and all
/// weights > 0.
std::vector<double> WeightedIsotonicRegression(
    const std::vector<double>& values, const std::vector<double>& weights);

/// The unique non-increasing vector closest to `values` in L2 (used when a
/// caller keeps counts in descending rank order, as Figure 7 plots them).
std::vector<double> AntitonicRegression(const std::vector<double>& values);

}  // namespace dphist

#endif  // DPHIST_PAPER_INFERENCE_ISOTONIC_H_
