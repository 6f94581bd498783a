#include "paper/data/nettrace.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "data/zipf.h"

namespace dphist {

Histogram GenerateNetTrace(const NetTraceConfig& config) {
  DPHIST_CHECK(config.num_hosts > 0);
  DPHIST_CHECK(config.num_connections >= 0);
  DPHIST_CHECK(config.silent_fraction >= 0.0 && config.silent_fraction < 1.0);
  DPHIST_CHECK(config.cluster_size >= 1);
  Rng rng(config.seed);

  // Draw connection tallies for the active hosts with Zipf popularity.
  std::int64_t active = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(config.num_hosts) *
                                   (1.0 - config.silent_fraction)));
  std::vector<std::int64_t> tallies =
      ZipfCounts(active, config.zipf_exponent, config.num_connections, &rng);
  // Tallies arrive rank-ordered; shuffle so busy hosts land in random
  // clusters rather than all in the first one.
  std::shuffle(tallies.begin(), tallies.end(), rng.engine());

  // Place active hosts in contiguous clusters (subnets). Divide the IP
  // space into cluster_size-wide blocks and activate a random subset of
  // blocks: silent space then consists of long contiguous runs, matching
  // real address space and enabling subtree pruning to find empty regions.
  std::int64_t cluster = std::min(config.cluster_size, config.num_hosts);
  std::int64_t total_blocks = (config.num_hosts + cluster - 1) / cluster;
  std::int64_t needed_blocks = (active + cluster - 1) / cluster;
  needed_blocks = std::min(needed_blocks, total_blocks);

  std::vector<std::int64_t> block_ids(static_cast<std::size_t>(total_blocks));
  std::iota(block_ids.begin(), block_ids.end(), 0);
  std::shuffle(block_ids.begin(), block_ids.end(), rng.engine());
  block_ids.resize(static_cast<std::size_t>(needed_blocks));
  std::sort(block_ids.begin(), block_ids.end());

  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(config.num_hosts), 0);
  std::int64_t placed = 0;
  for (std::int64_t block : block_ids) {
    std::int64_t start = block * cluster;
    std::int64_t end = std::min(start + cluster, config.num_hosts);
    for (std::int64_t pos = start; pos < end && placed < active; ++pos) {
      counts[static_cast<std::size_t>(pos)] =
          tallies[static_cast<std::size_t>(placed++)];
    }
  }
  return Histogram::FromCounts(counts, "external_host");
}

}  // namespace dphist
