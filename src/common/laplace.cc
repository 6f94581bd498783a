#include "common/laplace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

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
  double uniforms[MersenneTwister64::kStateWords];
  while (n > 0) {
    const std::size_t chunk = std::min(n, std::size(uniforms));
    rng->NextOpenDoubles(uniforms, chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      // Quantile(u) without its branch on u < 0.5: for u >= 0.5, 1 - u is
      // exact and the smaller of the two, and negating the product flips
      // only its sign bit, so every value equals Quantile's bit for bit.
      const double u = uniforms[i];
      const double magnitude = scale_ * std::log(2.0 * std::min(u, 1.0 - u));
      const std::uint64_t sign = static_cast<std::uint64_t>(u >= 0.5) << 63;
      values[i] += std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(magnitude) ^ sign);
    }
    values += chunk;
    n -= chunk;
  }
}

}  // namespace dphist
