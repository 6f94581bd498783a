#include "estimators/range_engine.h"

#include "common/check.h"

namespace dphist {

void RangeCountEstimator::RangeCountsInto(const Interval* ranges,
                                          std::size_t count,
                                          double* out) const {
  DPHIST_CHECK(count == 0 || (ranges != nullptr && out != nullptr));
  for (std::size_t i = 0; i < count; ++i) out[i] = RangeCount(ranges[i]);
}

std::vector<double> LeafPrefixSums(const std::vector<double>& leaves) {
  std::vector<double> prefix(leaves.size() + 1, 0.0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    prefix[i + 1] = prefix[i] + leaves[i];
  }
  return prefix;
}

}  // namespace dphist
