#include "estimators/range_engine.h"

#include "common/check.h"

namespace dphist {

void RangeCountEstimator::RangeCountsInto(const Interval* ranges,
                                          std::size_t count,
                                          double* out) const {
  DPHIST_CHECK(count == 0 || (ranges != nullptr && out != nullptr));
  for (std::size_t i = 0; i < count; ++i) out[i] = RangeCount(ranges[i]);
}

std::vector<double> RangeCountEstimator::RangeCounts(
    const std::vector<Interval>& ranges) const {
  std::vector<double> out(ranges.size());
  RangeCountsInto(ranges.data(), ranges.size(), out.data());
  return out;
}

std::vector<double> LeafPrefixSums(const std::vector<double>& leaves) {
  std::vector<double> prefix(leaves.size() + 1, 0.0);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    prefix[i + 1] = prefix[i] + leaves[i];
  }
  return prefix;
}

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

}  // namespace dphist
