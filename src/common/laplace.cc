#include "common/laplace.h"

#include <cmath>

#include "common/check.h"

namespace dphist {

LaplaceDistribution::LaplaceDistribution(double scale) : scale_(scale) {
  DPHIST_CHECK_MSG(scale > 0.0, "Laplace scale must be positive");
}

double LaplaceDistribution::Cdf(double x) const {
  if (x < 0.0) return 0.5 * std::exp(x / scale_);
  return 1.0 - 0.5 * std::exp(-x / scale_);
}

double LaplaceDistribution::Quantile(double u) const {
  DPHIST_CHECK(u > 0.0 && u < 1.0);
  if (u < 0.5) return scale_ * std::log(2.0 * u);
  return -scale_ * std::log(2.0 * (1.0 - u));
}

double LaplaceDistribution::Sample(Rng* rng) const {
  DPHIST_CHECK(rng != nullptr);
  return Quantile(rng->NextOpenDouble());
}

void LaplaceDistribution::AddSamplesTo(double* values, std::size_t n,
                                       Rng* rng) const {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK(n == 0 || values != nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] += Quantile(rng->NextOpenDouble());
  }
}

}  // namespace dphist
