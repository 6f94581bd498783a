#include "paper/data/social_network.h"

#include <vector>

#include "common/check.h"

namespace dphist {

Histogram GenerateSocialNetworkDegrees(const SocialNetworkConfig& config) {
  DPHIST_CHECK(config.num_nodes > 1);
  DPHIST_CHECK(config.edges_per_node >= 1);
  DPHIST_CHECK(config.edges_per_node < config.num_nodes);
  Rng rng(config.seed);

  std::vector<std::int64_t> degree(
      static_cast<std::size_t>(config.num_nodes), 0);
  // Endpoint pool: each node id appears once per incident edge, so a
  // uniform draw from the pool is degree-proportional (preferential
  // attachment) without any per-step renormalization.
  std::vector<std::int64_t> endpoint_pool;
  endpoint_pool.reserve(
      static_cast<std::size_t>(2 * config.edges_per_node * config.num_nodes));

  // Seed clique over the first m+1 nodes so early draws are well-defined.
  std::int64_t m = config.edges_per_node;
  for (std::int64_t a = 0; a <= m; ++a) {
    for (std::int64_t b = a + 1; b <= m; ++b) {
      ++degree[static_cast<std::size_t>(a)];
      ++degree[static_cast<std::size_t>(b)];
      endpoint_pool.push_back(a);
      endpoint_pool.push_back(b);
    }
  }

  for (std::int64_t v = m + 1; v < config.num_nodes; ++v) {
    for (std::int64_t e = 0; e < m; ++e) {
      std::int64_t pick = endpoint_pool[static_cast<std::size_t>(rng.NextInt(
          0, static_cast<std::int64_t>(endpoint_pool.size()) - 1))];
      ++degree[static_cast<std::size_t>(pick)];
      ++degree[static_cast<std::size_t>(v)];
      endpoint_pool.push_back(pick);
      endpoint_pool.push_back(v);
    }
  }
  return Histogram::FromCounts(degree, "student");
}

}  // namespace dphist
