// Direct evaluation of Theorem 1's min-max closed form.
//
//   L_k = min_{j in [k,n]} max_{i in [1,j]} M~[i,j]
//   U_k = max_{i in [1,k]} min_{j in [i,n]} M~[i,j]
//
// where M~[i,j] is the mean of the noisy subsequence s~[i..j]. Theorem 1
// states the minimum-L2 sorted solution is s-bar[k] = L_k = U_k. The
// formulas are evaluated with prefix sums in O(n^2) total — quadratic, so
// this is the reference implementation used by tests and small examples;
// production code uses the O(n) PAVA in isotonic.h, which must (and is
// tested to) produce identical output.

#ifndef DPHIST_PAPER_INFERENCE_MINMAX_ISOTONIC_H_
#define DPHIST_PAPER_INFERENCE_MINMAX_ISOTONIC_H_

#include <vector>

namespace dphist {

/// All L_k values of Theorem 1 (0-indexed: element k-1 holds L_k).
std::vector<double> MinMaxLowerSolution(const std::vector<double>& values);

/// All U_k values of Theorem 1 (0-indexed).
std::vector<double> MinMaxUpperSolution(const std::vector<double>& values);

}  // namespace dphist

#endif  // DPHIST_PAPER_INFERENCE_MINMAX_ISOTONIC_H_
