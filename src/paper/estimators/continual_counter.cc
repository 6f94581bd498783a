#include "paper/estimators/continual_counter.h"

#include "common/check.h"
#include "common/laplace.h"
#include "query/hierarchical_query.h"

namespace dphist {

ContinualCounter::ContinualCounter(std::int64_t horizon, double epsilon,
                                   const Rng& rng)
    : horizon_(horizon),
      epsilon_(epsilon),
      noise_scale_(0.0),
      tree_(horizon, 2),
      rng_(rng),
      exact_(static_cast<std::size_t>(tree_.node_count()), 0.0),
      noisy_(static_cast<std::size_t>(tree_.node_count()), 0.0),
      completed_(static_cast<std::size_t>(tree_.node_count()), false) {
  DPHIST_CHECK_MSG(horizon >= 1, "horizon must be positive");
  DPHIST_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  noise_scale_ = HierarchicalSensitivity(tree_) / epsilon_;
}

Result<ContinualCounter> ContinualCounter::Create(std::int64_t horizon,
                                                  double epsilon,
                                                  const Rng& rng) {
  if (horizon < 1) {
    return Status::InvalidArgument("horizon must be positive");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  return ContinualCounter(horizon, epsilon, rng);
}

void ContinualCounter::Observe(double count) {
  DPHIST_CHECK_MSG(steps_ < horizon_, "stream exceeded the horizon");
  std::int64_t pos = steps_;
  // Accumulate into every dyadic interval containing this step.
  std::int64_t v = tree_.LeafNode(pos);
  while (true) {
    exact_[static_cast<std::size_t>(v)] += count;
    if (tree_.IsRoot(v)) break;
    v = tree_.Parent(v);
  }
  ++steps_;
  CompleteNodesEndingAt(pos);
}

void ContinualCounter::CompleteNodesEndingAt(std::int64_t pos) {
  LaplaceDistribution noise(noise_scale_);
  std::int64_t v = tree_.LeafNode(pos);
  while (true) {
    if (tree_.NodeRange(v).hi() == pos) {
      DPHIST_DCHECK(!completed_[static_cast<std::size_t>(v)]);
      noisy_[static_cast<std::size_t>(v)] =
          exact_[static_cast<std::size_t>(v)] + noise.Sample(&rng_);
      completed_[static_cast<std::size_t>(v)] = true;
    }
    if (tree_.IsRoot(v)) break;
    v = tree_.Parent(v);
  }
}

double ContinualCounter::PrefixEstimate(std::int64_t t) const {
  DPHIST_CHECK_MSG(t >= 1 && t <= steps_,
                   "prefix time must be within the observed stream");
  // Dyadic decomposition of [0, t-1]: walk the binary representation of
  // t, taking one completed block per set bit, from the left edge.
  double total = 0.0;
  std::int64_t start = 0;
  std::int64_t remaining = t;
  std::int64_t block = tree_.leaf_count();
  std::int64_t depth = 0;
  while (remaining > 0) {
    if (remaining >= block) {
      // The block [start, start + block) is a complete dyadic node at
      // this depth.
      std::int64_t index_in_level = start / block;
      std::int64_t v = tree_.LevelStart(depth) + index_in_level;
      DPHIST_DCHECK(completed_[static_cast<std::size_t>(v)]);
      total += noisy_[static_cast<std::size_t>(v)];
      start += block;
      remaining -= block;
    }
    block /= 2;
    ++depth;
  }
  return total;
}

double ContinualCounter::RunningTotal() const {
  if (steps_ == 0) return 0.0;
  return PrefixEstimate(steps_);
}

std::int64_t ContinualCounter::TermCount(std::int64_t t) {
  std::int64_t bits = 0;
  while (t > 0) {
    bits += t & 1;
    t >>= 1;
  }
  return bits;
}

}  // namespace dphist
