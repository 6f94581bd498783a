// Common interface for private range-count estimators.

#ifndef DPHIST_ESTIMATORS_RANGE_ENGINE_H_
#define DPHIST_ESTIMATORS_RANGE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "domain/interval.h"

namespace dphist {

/// The one prefix fold: prefix[0] = 0 and prefix[i + 1] = prefix[i] +
/// leaves[i], left to right, into `prefix` (count + 1 entries). Every
/// prefix-served estimator and the answer plan (engine/answer_plan.h)
/// fold their leaves with it, so a release answers bit for bit alike
/// wherever its prefix sums live.
void FoldLeafPrefixSums(const double* leaves, std::size_t count,
                        double* prefix);

/// FoldLeafPrefixSums into a fresh table of leaves.size() + 1 sums.
std::vector<double> LeafPrefixSums(const std::vector<double>& leaves);

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

  /// Short name for reports ("L~", "H~", "H-bar", ...).
  virtual std::string Name() const = 0;
};

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_RANGE_ENGINE_H_
