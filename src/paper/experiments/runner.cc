#include "paper/experiments/runner.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/inference/isotonic.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"

namespace dphist {
namespace {

/// Forks one child stream per trial, in trial order, so the set of
/// per-trial Rngs is independent of how trials are later scheduled.
std::vector<Rng> ForkTrialRngs(Rng* master, std::size_t count) {
  std::vector<Rng> rngs;
  rngs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) rngs.push_back(master->Fork());
  return rngs;
}

}  // namespace

std::vector<Interval> RandomRangesOfSize(std::int64_t domain_size,
                                         std::int64_t size,
                                         std::int64_t count, Rng* rng) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK(size >= 1 && size <= domain_size);
  DPHIST_CHECK(count >= 0);
  std::vector<Interval> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    std::int64_t lo = rng->NextInt(0, domain_size - size);
    out.emplace_back(lo, lo + size - 1);
  }
  return out;
}

std::vector<std::int64_t> Fig6RangeSizes(std::int64_t domain_size) {
  DPHIST_CHECK(domain_size >= 2);
  // Match the paper: sizes 2^i for i = 1 .. height-2 where height is the
  // binary tree height over the (padded) domain; height-2 keeps the
  // largest range at a quarter of the padded domain.
  std::int64_t padded = 1;
  std::int64_t height = 1;
  while (padded < domain_size) {
    padded *= 2;
    ++height;
  }
  std::vector<std::int64_t> sizes;
  std::int64_t size = 2;
  for (std::int64_t i = 1; i <= height - 2; ++i) {
    if (size > domain_size) break;
    sizes.push_back(size);
    size *= 2;
  }
  return sizes;
}

std::vector<UnattributedCell> RunUnattributedExperiment(
    const Histogram& data, const UnattributedExperimentConfig& config) {
  DPHIST_CHECK(config.trials > 0);
  const std::vector<double> truth = TrueSortedCounts(data);
  const double n = static_cast<double>(truth.size());
  const std::size_t num_estimators = std::size(kAllUnattributedEstimators);
  const std::size_t trials = static_cast<std::size_t>(config.trials);

  // One task per (epsilon, trial) pair; rngs forked up front in the same
  // nested order the sequential loop would visit them.
  const std::size_t num_tasks = config.epsilons.size() * trials;
  Rng master(config.seed);
  std::vector<Rng> task_rngs = ForkTrialRngs(&master, num_tasks);

  // errors[task * num_estimators + e] = this trial's total squared error.
  std::vector<double> errors(num_tasks * num_estimators, 0.0);
  ParallelFor(
      static_cast<std::int64_t>(num_tasks), config.threads,
      [&](std::int64_t task) {
        const std::size_t eps_index =
            static_cast<std::size_t>(task) / trials;
        const double epsilon = config.epsilons[eps_index];
        Rng trial_rng = task_rngs[static_cast<std::size_t>(task)];
        std::vector<double> noisy =
            SampleNoisySortedCounts(data, epsilon, &trial_rng);
        std::size_t idx = 0;
        for (UnattributedEstimator estimator : kAllUnattributedEstimators) {
          std::vector<double> estimate =
              ApplyUnattributedEstimator(estimator, noisy);
          errors[static_cast<std::size_t>(task) * num_estimators + idx++] =
              SquaredError(estimate, truth);
        }
      });

  // Deterministic reduction in trial order.
  std::vector<UnattributedCell> cells;
  for (std::size_t e = 0; e < config.epsilons.size(); ++e) {
    std::vector<RunningStat> error_by_estimator(num_estimators);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t task = e * trials + t;
      for (std::size_t i = 0; i < num_estimators; ++i) {
        error_by_estimator[i].Add(errors[task * num_estimators + i]);
      }
    }
    for (std::size_t i = 0; i < num_estimators; ++i) {
      double total = error_by_estimator[i].Mean();
      cells.push_back(UnattributedCell{config.epsilons[e],
                                       kAllUnattributedEstimators[i], total,
                                       total / n});
    }
  }
  return cells;
}

std::vector<UniversalCell> RunUniversalExperiment(
    const Histogram& data, const UniversalExperimentConfig& config) {
  DPHIST_CHECK(config.trials > 0);
  DPHIST_CHECK(config.ranges_per_size > 0);
  const std::int64_t domain_size = data.size();
  const std::vector<std::int64_t> sizes = Fig6RangeSizes(domain_size);
  const std::size_t trials = static_cast<std::size_t>(config.trials);
  const std::size_t ranges_per_size =
      static_cast<std::size_t>(config.ranges_per_size);
  constexpr std::size_t kNumEstimators = 3;  // L~, H~, H-bar

  // Histogram's const accessors are thread-safe (eager prefix table), so
  // workers take true range counts straight from data.Count(). The
  // (trial-invariant) true tree counts are evaluated once instead of
  // once per trial.
  const HierarchicalQuery h_query(domain_size, config.branching);
  const std::vector<double> true_nodes = h_query.Evaluate(data);

  const std::size_t num_tasks = config.epsilons.size() * trials;
  Rng master(config.seed);
  std::vector<Rng> task_rngs = ForkTrialRngs(&master, num_tasks);

  // stats[task][size_index * 3 + estimator] accumulates this trial's
  // squared errors; merged across trials afterwards in trial order.
  std::vector<std::vector<RunningStat>> stats(
      num_tasks, std::vector<RunningStat>(sizes.size() * kNumEstimators));

  ParallelFor(
      static_cast<std::int64_t>(num_tasks), config.threads,
      [&](std::int64_t task_index) {
        const std::size_t task = static_cast<std::size_t>(task_index);
        const double epsilon = config.epsilons[task / trials];
        UniversalOptions options;
        options.epsilon = epsilon;
        options.branching = config.branching;
        options.round_to_nonnegative_integers =
            config.round_to_nonnegative_integers;
        options.prune_nonpositive_subtrees =
            config.prune_nonpositive_subtrees;
        const LaplaceMechanism mechanism(epsilon);

        Rng trial_rng = task_rngs[task];
        LTildeEstimator l_tilde(data, options, &trial_rng);
        // One hierarchical draw shared by H~ and H-bar.
        std::vector<double> noisy_nodes = mechanism.Perturb(
            true_nodes, mechanism.NoiseScale(h_query), &trial_rng);
        HBarEstimator h_bar(domain_size, options, noisy_nodes);
        HTildeEstimator h_tilde(domain_size, options,
                                std::move(noisy_nodes));

        std::vector<double> answers_l(ranges_per_size);
        std::vector<double> answers_ht(ranges_per_size);
        std::vector<double> answers_hb(ranges_per_size);
        std::vector<RunningStat>& trial_stats = stats[task];
        for (std::size_t s = 0; s < sizes.size(); ++s) {
          std::vector<Interval> ranges = RandomRangesOfSize(
              domain_size, sizes[s], config.ranges_per_size, &trial_rng);
          l_tilde.RangeCountsInto(ranges.data(), ranges.size(),
                                  answers_l.data());
          h_tilde.RangeCountsInto(ranges.data(), ranges.size(),
                                  answers_ht.data());
          h_bar.RangeCountsInto(ranges.data(), ranges.size(),
                                answers_hb.data());
          for (std::size_t q = 0; q < ranges.size(); ++q) {
            const double truth = data.Count(ranges[q]);
            const double dl = answers_l[q] - truth;
            const double dht = answers_ht[q] - truth;
            const double dhb = answers_hb[q] - truth;
            trial_stats[s * kNumEstimators + 0].Add(dl * dl);
            trial_stats[s * kNumEstimators + 1].Add(dht * dht);
            trial_stats[s * kNumEstimators + 2].Add(dhb * dhb);
          }
        }
      });

  std::vector<UniversalCell> cells;
  for (std::size_t e = 0; e < config.epsilons.size(); ++e) {
    std::vector<RunningStat> merged(sizes.size() * kNumEstimators);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::vector<RunningStat>& trial_stats = stats[e * trials + t];
      for (std::size_t i = 0; i < merged.size(); ++i) {
        merged[i].Merge(trial_stats[i]);
      }
    }
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      cells.push_back(UniversalCell{config.epsilons[e], "L~", sizes[s],
                                    merged[s * kNumEstimators + 0].Mean()});
      cells.push_back(UniversalCell{config.epsilons[e], "H~", sizes[s],
                                    merged[s * kNumEstimators + 1].Mean()});
      cells.push_back(UniversalCell{config.epsilons[e], "H-bar", sizes[s],
                                    merged[s * kNumEstimators + 2].Mean()});
    }
  }
  return cells;
}

ErrorProfile RunErrorProfile(const Histogram& data, double epsilon,
                             std::int64_t trials, std::uint64_t seed) {
  DPHIST_CHECK(trials > 0);
  // Work in ascending order (the inference order), flip for display.
  const std::vector<double> truth_ascending = TrueSortedCounts(data);
  const std::size_t n = truth_ascending.size();

  std::vector<RunningStat> per_position(n);
  Rng master(seed);
  for (std::int64_t t = 0; t < trials; ++t) {
    Rng trial_rng = master.Fork();
    std::vector<double> noisy =
        SampleNoisySortedCounts(data, epsilon, &trial_rng);
    std::vector<double> fitted = IsotonicRegression(noisy);
    for (std::size_t i = 0; i < n; ++i) {
      double d = fitted[i] - truth_ascending[i];
      per_position[i].Add(d * d);
    }
  }

  ErrorProfile profile;
  profile.true_sorted_descending.assign(truth_ascending.rbegin(),
                                        truth_ascending.rend());
  profile.sbar_error.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    profile.sbar_error[i] = per_position[n - 1 - i].Mean();
  }
  profile.stilde_error = 2.0 / (epsilon * epsilon);
  return profile;
}

}  // namespace dphist
