// Synthetic 2-D spatial data for the multi-dimensional histogram
// extension: clustered point masses over a grid (think geo-tagged events
// — dense downtowns, empty countryside), the 2-D analogue of NetTrace's
// clustered sparsity.

#ifndef DPHIST_PAPER_DATA_SPATIAL_H_
#define DPHIST_PAPER_DATA_SPATIAL_H_

#include <cstdint>

#include "common/rng.h"
#include "paper/domain/grid.h"

namespace dphist {

/// Parameters of the synthetic spatial dataset.
struct SpatialConfig {
  /// Grid side (rows = cols = side).
  std::int64_t side = 256;
  /// Total points to place.
  std::int64_t num_points = 100000;
  /// Number of Gaussian clusters.
  std::int64_t num_clusters = 8;
  /// Cluster standard deviation in cells.
  double cluster_stddev = 6.0;
  /// Fraction of points placed uniformly at random (background noise).
  double uniform_fraction = 0.05;
  /// Generator seed.
  std::uint64_t seed = 42;
};

/// Per-cell point counts; differential privacy protects single points.
GridHistogram GenerateSpatialBlobs(const SpatialConfig& config);

}  // namespace dphist

#endif  // DPHIST_PAPER_DATA_SPATIAL_H_
