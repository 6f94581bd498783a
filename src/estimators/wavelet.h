// The Haar-wavelet strategy of Xiao, Wang, and Gehrke (ICDE 2010),
// "Privelet" — the related-work comparator of Section 6.
//
// The paper notes: "Xiao et al. propose an approach based on the Haar
// wavelet, which is conceptually similar to the H query ... that
// technique has error equivalent to a binary H query, as shown by Li et
// al.". We implement it so the equivalence claim can be measured
// (bench_wavelet_equivalence).
//
// Mechanism (for a domain padded to n = 2^h):
//   - compute the Haar decomposition: a base coefficient c0 (the global
//     average) and, for each internal node of the dyadic tree at level j
//     (j = 1 at the leaf-adjacent level .. h at the root), a detail
//     coefficient (avg(left half) - avg(right half)) / 2;
//   - adding/removing one record changes c0 by 1/n and each of the h
//     detail coefficients on the leaf's root path by 2^-j, so with
//     weights W(c0) = n and W(c_j) = 2^j the *weighted* L1 sensitivity is
//     exactly 1 + h = 1 + log2 n;
//   - add Lap((1 + h) / (eps * W(c))) noise to every coefficient — an
//     eps-differentially-private release (the generalized Laplace
//     mechanism with per-coordinate weights);
//   - reconstruct leaf estimates by the inverse transform; range queries
//     sum reconstructed leaves (final answer optionally rounded,
//     Section 5.2 semantics).

#ifndef DPHIST_ESTIMATORS_WAVELET_H_
#define DPHIST_ESTIMATORS_WAVELET_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"

namespace dphist {

/// Forward Haar transform of a power-of-two-length vector.
/// Output layout: index 0 holds the base coefficient (global average);
/// index i >= 1 holds the detail coefficient of dyadic node i in BFS
/// order (node 1 = root split, children of i at 2i and 2i+1). Works in
/// `values`' own buffer: a caller done with its input moves it in.
std::vector<double> HaarTransform(std::vector<double> values);

/// Inverse of HaarTransform.
std::vector<double> InverseHaarTransform(
    const std::vector<double>& coefficients);

/// The weighted L1 sensitivity of the Haar coefficient vector for a
/// domain padded to a power of two, `padded_leaf_count`: 1 + log2(n).
/// The one wavelet formula: the estimator's noise and the planner's
/// RecurrenceOracle both call it.
double HaarWeightedSensitivity(std::int64_t padded_leaf_count);

/// Options for the wavelet estimator.
struct WaveletOptions {
  double epsilon = 1.0;
  /// Round final range answers to non-negative integers (Section 5.2).
  bool round_to_nonnegative_integers = true;
};

/// The wavelet release state: the Haar coefficients of `data` padded to
/// a power of two, each plus its weighted Laplace noise, reconstructed
/// by the inverse transform and cut back to data.size() leaves. CHECKs
/// an RNG and a positive epsilon. The estimator and Snapshot::Build both
/// draw through it.
std::vector<double> DrawWaveletLeaves(const Histogram& data,
                                      const WaveletOptions& options, Rng* rng);

/// Privelet-style epsilon-DP range-count estimator.
class WaveletEstimator : public RangeCountEstimator {
 public:
  /// Draws the noise through DrawWaveletLeaves.
  WaveletEstimator(const Histogram& data, const WaveletOptions& options,
                   Rng* rng);

  double RangeCount(const Interval& range) const override;
  std::string Name() const override { return "Wavelet"; }

  /// Reconstructed per-position estimates (raw; domain-sized).
  const std::vector<double>& leaf_estimates() const { return leaves_; }

  /// Padded transform length (power of two).
  std::int64_t padded_size() const { return padded_size_; }

 private:
  bool round_answers_;
  std::int64_t domain_size_;
  std::int64_t padded_size_;
  std::vector<double> leaves_;
  std::vector<double> prefix_;
};

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_WAVELET_H_
