// Publishing the degree sequence of a private social network — the
// unattributed-histogram task of Section 3.
//
// Differential privacy protects individual friendships. The sorted query
// S has sensitivity 1 (Proposition 3), so we can release the full degree
// sequence at the same noise level as a single histogram — and isotonic
// regression then exploits the known ordering to strip most of the noise
// from the (heavily duplicated) power-law degrees.

#include <cstdio>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/social_network.h"
#include "paper/estimators/unattributed.h"

int main() {
  using namespace dphist;

  // An ~11K-node friendship graph (the paper's Social Network scale).
  SocialNetworkConfig config;
  config.num_nodes = 11000;
  config.edges_per_node = 4;
  Histogram degrees = GenerateSocialNetworkDegrees(config);
  std::printf("graph: %lld nodes, %.0f edge-endpoints, max degree %.0f\n",
              static_cast<long long>(degrees.size()), degrees.Total(),
              degrees.SortedCounts().back());

  const double epsilon = 0.1;
  Rng rng(7);

  // One interaction with the private data...
  std::vector<double> noisy =
      SampleNoisySortedCounts(degrees, epsilon, &rng);
  // ...then pure post-processing.
  std::vector<double> inferred =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  std::vector<double> baseline =
      ApplyUnattributedEstimator(UnattributedEstimator::kSTildeRounded,
                                 noisy);
  std::vector<double> truth = TrueSortedCounts(degrees);

  std::printf("\nepsilon = %.2f\n", epsilon);
  std::printf("squared error, S~ (raw noisy):    %12.1f\n",
              SquaredError(noisy, truth));
  std::printf("squared error, S~r (sort+round):  %12.1f\n",
              SquaredError(baseline, truth));
  std::printf("squared error, S-bar (inference): %12.1f\n",
              SquaredError(inferred, truth));

  // Show the tail of the sequence (the hubs) — the interesting part of a
  // degree sequence, and the hardest to estimate.
  std::printf("\n%8s  %8s  %10s  %10s\n", "rank", "true", "noisy",
              "inferred");
  std::size_t n = truth.size();
  for (std::size_t i = n - 10; i < n; ++i) {
    std::printf("%8zu  %8.0f  %10.2f  %10.2f\n", n - i, truth[i], noisy[i],
                inferred[i]);
  }
  return 0;
}
