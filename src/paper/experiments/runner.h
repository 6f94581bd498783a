// Multi-trial experiment runners reproducing the paper's evaluation
// protocol (Section 5): average squared error over repeated draws from the
// differentially private mechanisms, and over random range workloads for
// the universal-histogram task.
//
// The per-trial loops of RunUnattributedExperiment and
// RunUniversalExperiment run on a worker pool (`threads` in the configs).
// Every trial's Rng is forked from the master stream up front in trial
// order and each trial writes into its own result slot, merged in trial
// order afterwards — so the output is bit-identical for any thread count,
// including 1.

#ifndef DPHIST_PAPER_EXPERIMENTS_RUNNER_H_
#define DPHIST_PAPER_EXPERIMENTS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "paper/estimators/unattributed.h"

namespace dphist {

/// Draws `count` ranges of exactly `size` positions with uniformly random
/// location inside a domain of `domain_size` (the Fig. 6 workload).
/// Requires 1 <= size <= domain_size.
std::vector<Interval> RandomRangesOfSize(std::int64_t domain_size,
                                         std::int64_t size,
                                         std::int64_t count, Rng* rng);

/// Every range size used by the Fig. 6 sweep: 2^1, 2^2, ..., 2^(height-2)
/// for a binary tree of the given height, clipped to the domain.
std::vector<std::int64_t> Fig6RangeSizes(std::int64_t domain_size);

/// Protocol knobs for the Fig. 5 experiment.
struct UnattributedExperimentConfig {
  /// Privacy levels, in the paper's order.
  std::vector<double> epsilons = {1.0, 0.1, 0.01};
  /// Noise redraws per (epsilon, estimator) cell. Paper: 50.
  std::int64_t trials = 50;
  /// Seed for the whole experiment (each trial forks its own stream).
  std::uint64_t seed = 7;
  /// Worker threads for the trial loop; 0 = hardware concurrency. The
  /// result is bit-identical for every value.
  std::int64_t threads = 1;
};

/// One Fig. 5 bar: average error of one estimator at one privacy level.
struct UnattributedCell {
  double epsilon;
  UnattributedEstimator estimator;
  /// Average over trials of sum_i (est[i] - S(I)[i])^2.
  double total_squared_error;
  /// total_squared_error / n — the per-count mean squared error, which is
  /// the scale Fig. 5 plots (error(S~) = 2/eps^2 per count).
  double per_count_error;
};

/// Runs the Fig. 5 protocol on one dataset.
std::vector<UnattributedCell> RunUnattributedExperiment(
    const Histogram& data, const UnattributedExperimentConfig& config);

/// Protocol knobs for the Fig. 6 experiment.
struct UniversalExperimentConfig {
  std::vector<double> epsilons = {1.0, 0.1, 0.01};
  /// Noise redraws per epsilon. Paper: 50.
  std::int64_t trials = 50;
  /// Random ranges per (trial, range size). Paper: 1000.
  std::int64_t ranges_per_size = 1000;
  /// Tree branching factor. Paper: 2.
  std::int64_t branching = 2;
  /// Round all estimates to non-negative integers (Section 5.2).
  bool round_to_nonnegative_integers = true;
  /// Prune non-positive subtrees in H-bar (Section 4.2).
  bool prune_nonpositive_subtrees = true;
  std::uint64_t seed = 7;
  /// Worker threads for the trial loop; 0 = hardware concurrency. The
  /// result is bit-identical for every value.
  std::int64_t threads = 1;
};

/// One Fig. 6 point: average squared error of one estimator for ranges of
/// one size at one privacy level.
struct UniversalCell {
  double epsilon;
  std::string estimator;  // "L~", "H~", "H-bar"
  std::int64_t range_size;
  /// Average over trials and ranges of (est(q) - true(q))^2.
  double avg_squared_error;
};

/// Runs the Fig. 6 protocol on one dataset. H~ and H-bar are evaluated on
/// the same noisy draw each trial, isolating the effect of inference.
std::vector<UniversalCell> RunUniversalExperiment(
    const Histogram& data, const UniversalExperimentConfig& config);

/// Fig. 7: per-position error profile of S-bar vs S~ on one dataset.
struct ErrorProfile {
  /// S(I) sorted descending (the order Fig. 7 plots).
  std::vector<double> true_sorted_descending;
  /// Mean squared error of S-bar at each position (same order).
  std::vector<double> sbar_error;
  /// Expected per-position error of S~, constant 2/eps^2.
  double stilde_error;
};

/// Runs the Fig. 7 protocol (paper: 200 trials, eps = 1.0).
ErrorProfile RunErrorProfile(const Histogram& data, double epsilon,
                             std::int64_t trials, std::uint64_t seed);

}  // namespace dphist

#endif  // DPHIST_PAPER_EXPERIMENTS_RUNNER_H_
