// Private continual release of a running count — the Chan, Shi, Song
// (ICALP 2010) "binary mechanism" that Section 6 describes as "a
// differentially private counter that is similar to H, in which items are
// hierarchically aggregated by arrival time".
//
// A stream of per-step counts arrives over a fixed horizon T. After every
// step the data owner can publish the running total; naively adding fresh
// Laplace noise to each released prefix would cost epsilon per release
// (or variance linear in t for a fixed budget). The binary mechanism
// instead maintains noisy sums over the dyadic intervals of the timeline
// — exactly the H query over arrival time. One stream item touches the
// log2(T)+1 dyadic intervals on its leaf-to-root path, so adding
// Lap(height/epsilon) noise to every interval once (when it completes)
// makes the ENTIRE release sequence epsilon-DP, and every prefix is
// reconstructed from at most popcount(t) <= log2(T)+1 noisy sums:
// error O(log^3 T / eps^2) at every time step, independent of t.

#ifndef DPHIST_PAPER_ESTIMATORS_CONTINUAL_COUNTER_H_
#define DPHIST_PAPER_ESTIMATORS_CONTINUAL_COUNTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tree/tree_layout.h"

namespace dphist {

/// Streaming epsilon-DP counter over a fixed horizon.
class ContinualCounter {
 public:
  /// A counter for up to `horizon` time steps at privacy `epsilon`.
  /// The Rng is captured (copied) so the noise stream is self-contained.
  ContinualCounter(std::int64_t horizon, double epsilon, const Rng& rng);

  /// Validating construction for serving paths: a non-positive horizon
  /// or epsilon becomes a Status instead of aborting the process.
  static Result<ContinualCounter> Create(std::int64_t horizon, double epsilon,
                                         const Rng& rng);

  /// Ingests the count of the next time step. Checked: at most horizon
  /// observations.
  void Observe(double count);

  /// Number of observations so far.
  std::int64_t steps() const { return steps_; }

  /// The horizon T.
  std::int64_t horizon() const { return horizon_; }

  /// The privacy parameter covering the whole stream of releases.
  double epsilon() const { return epsilon_; }

  /// The per-dyadic-interval noise scale, height / epsilon.
  double noise_scale() const { return noise_scale_; }

  /// epsilon-DP estimate of the total count over steps 1..t. Requires
  /// 1 <= t <= steps(). Repeated calls return identical values (noise is
  /// fixed per dyadic interval).
  double PrefixEstimate(std::int64_t t) const;

  /// PrefixEstimate at the current step; 0 before any observation.
  double RunningTotal() const;

  /// Number of noisy dyadic sums combined for PrefixEstimate(t)
  /// (= popcount(t); exposed for tests and error analysis).
  static std::int64_t TermCount(std::int64_t t);

 private:
  /// Completes all dyadic nodes whose interval ends at leaf position
  /// `pos` (0-based): fixes their noisy value.
  void CompleteNodesEndingAt(std::int64_t pos);

  std::int64_t horizon_;
  double epsilon_;
  double noise_scale_;
  TreeLayout tree_;
  Rng rng_;
  std::int64_t steps_ = 0;
  /// Exact running sums per node (internal bookkeeping, never released).
  std::vector<double> exact_;
  /// Noisy value per node, fixed when the node's interval completes.
  std::vector<double> noisy_;
  std::vector<bool> completed_;
};

}  // namespace dphist

#endif  // DPHIST_PAPER_ESTIMATORS_CONTINUAL_COUNTER_H_
