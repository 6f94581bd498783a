#include "paper/estimators/blum_histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/laplace.h"

namespace dphist {

BlumEquiDepthHistogram::BlumEquiDepthHistogram(
    const Histogram& data, const BlumHistogramConfig& config, Rng* rng)
    : domain_size_(data.size()) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK_MSG(config.epsilon > 0.0, "epsilon must be positive");
  DPHIST_CHECK_MSG(config.num_bins >= 1, "need at least one bin");
  const std::int64_t bins = std::min(config.num_bins, domain_size_);

  // Budget: one probe for the total, ceil(log2 n) probes per interior
  // boundary. Every probe is a sensitivity-1 count, so splitting epsilon
  // evenly makes the whole construction epsilon-DP by composition.
  std::int64_t probes_per_search = 1;
  while ((std::int64_t{1} << probes_per_search) < domain_size_) {
    ++probes_per_search;
  }
  std::int64_t total_probes = 1 + (bins - 1) * probes_per_search;
  double eps_per_probe = config.epsilon / static_cast<double>(total_probes);
  LaplaceDistribution probe_noise(1.0 / eps_per_probe);

  estimated_total_ =
      std::max(0.0, data.Total() + probe_noise.Sample(rng));
  mass_per_bin_ = estimated_total_ / static_cast<double>(bins);

  boundaries_.reserve(static_cast<std::size_t>(bins));
  std::int64_t previous = -1;
  for (std::int64_t j = 1; j < bins; ++j) {
    double target =
        static_cast<double>(j) * estimated_total_ / static_cast<double>(bins);
    // Noisy binary search for the first position whose prefix count
    // reaches `target`.
    std::int64_t lo = 0;
    std::int64_t hi = domain_size_ - 1;
    while (lo < hi) {
      std::int64_t mid = lo + (hi - lo) / 2;
      double noisy_prefix =
          data.Count(Interval(0, mid)) + probe_noise.Sample(rng);
      if (noisy_prefix < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::int64_t boundary = std::max(lo, previous + 1);
    boundary = std::min(boundary, domain_size_ - 1);
    boundaries_.push_back(boundary);
    previous = boundary;
  }
  boundaries_.push_back(domain_size_ - 1);
}

double BlumEquiDepthHistogram::RangeCount(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the estimator's domain");
  double total = 0.0;
  std::int64_t bin_lo = 0;
  for (std::size_t b = 0; b < boundaries_.size(); ++b) {
    std::int64_t bin_hi = boundaries_[b];
    if (bin_hi >= bin_lo) {  // Skip degenerate (empty) buckets.
      Interval bin(bin_lo, bin_hi);
      if (bin.Overlaps(range)) {
        std::int64_t overlap_lo = std::max(bin.lo(), range.lo());
        std::int64_t overlap_hi = std::min(bin.hi(), range.hi());
        double fraction =
            static_cast<double>(overlap_hi - overlap_lo + 1) /
            static_cast<double>(bin.Length());
        total += fraction * mass_per_bin_;
      }
    }
    bin_lo = bin_hi + 1;
  }
  return total;
}

double HTildeUsefulDatabaseSize(std::int64_t domain_size, double eps,
                                double delta, double alpha) {
  DPHIST_CHECK(domain_size >= 2);
  DPHIST_CHECK(eps > 0.0 && delta > 0.0 && delta < 1.0 && alpha > 0.0);
  double n = static_cast<double>(domain_size);
  double ell = std::ceil(std::log2(n)) + 1.0;
  return 16.0 * std::pow(ell, 1.5) * std::log(2.0 * n * n / delta) /
         (eps * alpha);
}

double BlumUsefulDatabaseSize(std::int64_t domain_size, double eps,
                              double delta, double alpha) {
  DPHIST_CHECK(domain_size >= 2);
  DPHIST_CHECK(eps > 0.0 && delta > 0.0 && delta < 1.0 && alpha > 0.0);
  double n = static_cast<double>(domain_size);
  double log_n = std::log2(n);
  return log_n * (std::log2(std::max(2.0, log_n)) + std::log2(1.0 / delta)) /
         (eps * alpha * alpha * alpha);
}

}  // namespace dphist
