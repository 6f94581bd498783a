// The Laplace distribution Lap(b): density (1/2b) exp(-|x|/b).
//
// This is the noise distribution of the Laplace mechanism (Dwork et al.,
// TCC 2006; Proposition 1 of Hay et al.). Sampling uses the inverse CDF so
// a single uniform draw yields one noise value deterministically.

#ifndef DPHIST_COMMON_LAPLACE_H_
#define DPHIST_COMMON_LAPLACE_H_

#include <cstddef>

#include "common/rng.h"

namespace dphist {

/// Zero-mean Laplace distribution with scale b > 0.
class LaplaceDistribution {
 public:
  /// Constructs Lap(scale). Requires scale > 0.
  explicit LaplaceDistribution(double scale);

  /// The scale parameter b.
  double scale() const { return scale_; }

  /// Variance of Lap(b), equal to 2 b^2.
  double Variance() const { return 2.0 * scale_ * scale_; }

  /// Cumulative distribution function at x.
  double Cdf(double x) const;

  /// Inverse CDF; maps u in (0,1) to the u-quantile.
  double Quantile(double u) const;

  /// Draws a single sample.
  double Sample(Rng* rng) const;

  /// Batched perturbation: adds an independent sample to each of
  /// values[0..n) in place — the Laplace-mechanism inner loop without an
  /// intermediate noise vector or output copy. Consumes exactly the same
  /// rng stream as n calls to Sample.
  void AddSamplesTo(double* values, std::size_t n, Rng* rng) const;

 private:
  double scale_;
};

}  // namespace dphist

#endif  // DPHIST_COMMON_LAPLACE_H_
