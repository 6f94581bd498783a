// Differentially private equi-depth histogram in the style of Blum,
// Ligett, and Roth (STOC 2008) — the comparator of Appendix E.
//
// Blum et al.'s implementation is not public, so per the reproduction
// ground rules we implement the algorithm their paper (and Appendix E's
// description "binary search equi-depth histogram") sketches:
//
//   1. Estimate the total N with one noisy count.
//   2. For j = 1..B-1, binary-search the position where the prefix count
//      crosses j*N/B, answering each probe with a fresh Laplace-noised
//      prefix count. Each prefix count has sensitivity 1; the privacy
//      budget is split evenly across all probes (sequential composition),
//      so the whole construction is epsilon-DP.
//   3. Publish the B bucket boundaries; each bucket is assumed to hold
//      N/B mass spread uniformly (the equi-depth synthetic data of BLR).
//
// Range queries integrate the piecewise-uniform density. The substitution
// preserves what Appendix E measures: absolute range-query error that
// grows with database size N (the boundaries blur as counts scale), in
// contrast to H~ whose error is independent of N.
//
// Appendix E's analytic (epsilon,delta)-usefulness bounds for both
// techniques are also provided for the bench's bound table.

#ifndef DPHIST_PAPER_ESTIMATORS_BLUM_HISTOGRAM_H_
#define DPHIST_PAPER_ESTIMATORS_BLUM_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"

namespace dphist {

/// Parameters of the equi-depth construction.
struct BlumHistogramConfig {
  /// Privacy parameter for the whole construction.
  double epsilon = 1.0;
  /// Number of equi-depth buckets B (>= 1).
  std::int64_t num_bins = 16;
};

/// Equi-depth DP histogram supporting range counts.
class BlumEquiDepthHistogram : public RangeCountEstimator {
 public:
  BlumEquiDepthHistogram(const Histogram& data,
                         const BlumHistogramConfig& config, Rng* rng);

  double RangeCount(const Interval& range) const override;
  std::string Name() const override { return "BLR"; }

  /// Noisy estimate of the database size used for bucket mass.
  double estimated_total() const { return estimated_total_; }

  /// Bucket upper boundaries (positions), ascending, one per bucket.
  const std::vector<std::int64_t>& boundaries() const { return boundaries_; }

 private:
  std::int64_t domain_size_;
  double estimated_total_;
  double mass_per_bin_;
  std::vector<std::int64_t> boundaries_;
};

/// Appendix E: smallest database size N for which H~ is
/// (eps, delta)-useful at privacy alpha over a domain of size n:
///   N >= 16 * ell^{3/2} * ln(2 n^2 / delta) / (eps * alpha).
double HTildeUsefulDatabaseSize(std::int64_t domain_size, double eps,
                                double delta, double alpha);

/// Appendix E: Blum et al.'s bound (big-O with unit constant):
///   N >= log n * (log log n + log(1/delta)) / (eps * alpha^3).
double BlumUsefulDatabaseSize(std::int64_t domain_size, double eps,
                              double delta, double alpha);

}  // namespace dphist

#endif  // DPHIST_PAPER_ESTIMATORS_BLUM_HISTOGRAM_H_
