#include "paper/data/spatial.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace dphist {

GridHistogram GenerateSpatialBlobs(const SpatialConfig& config) {
  DPHIST_CHECK(config.side > 0);
  DPHIST_CHECK(config.num_points >= 0);
  DPHIST_CHECK(config.num_clusters >= 1);
  DPHIST_CHECK(config.uniform_fraction >= 0.0 &&
               config.uniform_fraction <= 1.0);
  Rng rng(config.seed);

  // Cluster centers away from the borders so blobs stay mostly in-grid.
  std::vector<std::pair<double, double>> centers;
  centers.reserve(static_cast<std::size_t>(config.num_clusters));
  double margin = std::min(static_cast<double>(config.side) * 0.1,
                           3.0 * config.cluster_stddev);
  for (std::int64_t c = 0; c < config.num_clusters; ++c) {
    centers.emplace_back(
        rng.NextUniform(margin, static_cast<double>(config.side) - margin),
        rng.NextUniform(margin, static_cast<double>(config.side) - margin));
  }

  GridHistogram grid(config.side, config.side, "location");
  auto clamp = [&](double v) {
    return std::min<std::int64_t>(
        config.side - 1,
        std::max<std::int64_t>(0, static_cast<std::int64_t>(std::lround(v))));
  };
  for (std::int64_t p = 0; p < config.num_points; ++p) {
    std::int64_t row, col;
    if (rng.NextBernoulli(config.uniform_fraction)) {
      row = rng.NextInt(0, config.side - 1);
      col = rng.NextInt(0, config.side - 1);
    } else {
      const auto& center =
          centers[static_cast<std::size_t>(rng.NextInt(
              0, config.num_clusters - 1))];
      row = clamp(center.first + config.cluster_stddev * rng.NextGaussian());
      col = clamp(center.second + config.cluster_stddev * rng.NextGaussian());
    }
    grid.Increment(row, col);
  }
  return grid;
}

}  // namespace dphist
