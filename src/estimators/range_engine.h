// Common interface for private range-count estimators plus workload
// generation helpers shared by the universal-histogram experiments.

#ifndef DPHIST_ESTIMATORS_RANGE_ENGINE_H_
#define DPHIST_ESTIMATORS_RANGE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "domain/interval.h"

namespace dphist {

/// Zero-copy view of an estimator whose every range answer is one
/// prefix-sum difference: answer([lo, hi]) = prefix[hi + 1] - prefix[lo],
/// rounded to the nearest non-negative integer iff `round_final_answer`.
/// An empty view (null prefix) means the estimator answers by a
/// decomposition walk instead and cannot be flattened into the batch
/// answer engine's columnar plan (engine/answer_plan.h).
struct PrefixAnswerView {
  /// `size + 1` entries; prefix[0] == 0. Valid while the estimator lives.
  const double* prefix = nullptr;
  /// Leaf count (the estimator's domain size).
  std::int64_t size = 0;
  bool round_final_answer = false;
};

/// Anything that can answer c([x, y]) from a privately derived state.
class RangeCountEstimator {
 public:
  virtual ~RangeCountEstimator() = default;

  /// Estimated count for the range.
  virtual double RangeCount(const Interval& range) const = 0;

  /// Batched answering: fills `out[i]` with the answer for `ranges[i]`.
  /// The default forwards to RangeCount once per range; estimators
  /// override it with a tight loop so a whole workload pays one virtual
  /// dispatch and no per-query allocation.
  virtual void RangeCountsInto(const Interval* ranges, std::size_t count,
                               double* out) const;

  /// Convenience form of the batched path.
  std::vector<double> RangeCounts(const std::vector<Interval>& ranges) const;

  /// The prefix-difference answer state, when this estimator has one
  /// (L~, wavelet, consistent H-bar); empty otherwise. The batch answer
  /// engine flattens non-empty views into its columnar AnswerPlan at
  /// publish time and serves them through SIMD kernels — the view's
  /// semantics must therefore match RangeCount bit for bit.
  virtual PrefixAnswerView PrefixView() const { return {}; }

  /// Short name for reports ("L~", "H~", "H-bar", ...).
  virtual std::string Name() const = 0;

  /// The minimal vector of doubles from which a per-strategy Restore
  /// factory can rebuild this estimator with bit-identical answers (the
  /// noise was drawn once at construction; everything else is
  /// deterministic post-processing). Returns nullptr when the estimator
  /// does not support persistence — the storage layer then refuses to
  /// snapshot it rather than persisting something it cannot revive.
  virtual const std::vector<double>* SerializableState() const {
    return nullptr;
  }
};

/// Draws `count` ranges of exactly `size` positions with uniformly random
/// location inside a domain of `domain_size` (the Fig. 6 workload).
/// Requires 1 <= size <= domain_size.
std::vector<Interval> RandomRangesOfSize(std::int64_t domain_size,
                                         std::int64_t size,
                                         std::int64_t count, Rng* rng);

/// Every range size used by the Fig. 6 sweep: 2^1, 2^2, ..., 2^(height-2)
/// for a binary tree of the given height, clipped to the domain.
std::vector<std::int64_t> Fig6RangeSizes(std::int64_t domain_size);

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_RANGE_ENGINE_H_
