// Synthetic SocialNetwork: stand-in for the paper's university friendship
// graph (~11K students).
//
// The experiment needs the graph's degree sequence. We synthesize one with
// a preferential-attachment (Barabasi-Albert) process, which yields the
// power-law-with-many-duplicates shape the paper highlights ("the typical
// degree sequences that arise in real data, such as the power-law
// distribution, contain very large uniform subsequences", Appendix C).

#ifndef DPHIST_PAPER_DATA_SOCIAL_NETWORK_H_
#define DPHIST_PAPER_DATA_SOCIAL_NETWORK_H_

#include <cstdint>

#include "common/rng.h"
#include "domain/histogram.h"

namespace dphist {

/// Parameters of the synthetic friendship graph.
struct SocialNetworkConfig {
  /// Number of nodes (students). The paper's graph has ~11,000.
  std::int64_t num_nodes = 11000;
  /// Edges attached per arriving node (BA parameter m).
  std::int64_t edges_per_node = 4;
  /// Generator seed.
  std::uint64_t seed = 42;
};

/// Node degrees over [0, num_nodes): the degree of node i at position i.
/// Differential privacy in this task protects individual friendships
/// (edges), matching the paper's threat model.
Histogram GenerateSocialNetworkDegrees(const SocialNetworkConfig& config);

}  // namespace dphist

#endif  // DPHIST_PAPER_DATA_SOCIAL_NETWORK_H_
