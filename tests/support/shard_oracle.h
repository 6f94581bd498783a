// An answer oracle for a Snapshot that shares none of its answer code:
// each shard's paper estimator, drawn over the shard's slice from the
// stream Snapshot::Build forks for that shard (all forks taken in shard
// order before any draw, as Build takes them). A release and its oracle
// share the per-strategy draw functions, so their noise is the same;
// the oracle answers from each estimator's own prefix table or
// decomposition walk, never from the release's plan rows or node walk.

#ifndef DPHIST_TESTS_SUPPORT_SHARD_ORACLE_H_
#define DPHIST_TESTS_SUPPORT_SHARD_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "estimators/universal.h"
#include "estimators/wavelet.h"
#include "service/snapshot.h"

namespace dphist {

class ShardOracle {
 public:
  /// The estimators Snapshot::Build(data, options, epoch, &Rng(seed))
  /// draws its shards' states with.
  ShardOracle(const Histogram& data, const SnapshotOptions& options,
              std::uint64_t seed)
      : domain_size_(data.size()),
        width_(ShardWidth(data.size(), options.shards)) {
    const std::int64_t count = (domain_size_ + width_ - 1) / width_;
    Rng rng(seed);
    std::vector<Rng> forks;
    for (std::int64_t i = 0; i < count; ++i) forks.push_back(rng.Fork());
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t lo = i * width_;
      const std::int64_t hi = std::min(domain_size_, lo + width_);
      const Histogram slice(
          std::vector<double>(data.counts().begin() + lo,
                              data.counts().begin() + hi),
          data.domain().attribute());
      shards_.push_back(
          Draw(count == 1 ? data : slice, options,
               &forks[static_cast<std::size_t>(i)]));
    }
  }

  std::int64_t shard_count() const {
    return static_cast<std::int64_t>(shards_.size());
  }
  const RangeCountEstimator& shard(std::int64_t s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  /// The answer the release must give: one shard's own answer, or the
  /// clipped shard answers added to 0.0 in shard order.
  double RangeCount(const Interval& range) const {
    const std::int64_t first = range.lo() / width_;
    const std::int64_t last = range.hi() / width_;
    if (first == last) {
      return shard(first).RangeCount(
          Interval(range.lo() - first * width_, range.hi() - first * width_));
    }
    double total = 0.0;
    for (std::int64_t s = first; s <= last; ++s) {
      const std::int64_t base = s * width_;
      const std::int64_t lo = std::max(range.lo(), base);
      const std::int64_t hi = std::min(range.hi(), base + width_ - 1);
      total += shard(s).RangeCount(Interval(lo - base, hi - base));
    }
    return total;
  }

 private:
  static std::unique_ptr<RangeCountEstimator> Draw(
      const Histogram& data, const SnapshotOptions& options, Rng* rng) {
    UniversalOptions universal;
    universal.epsilon = options.epsilon;
    universal.branching = options.branching;
    universal.round_to_nonnegative_integers =
        options.round_to_nonnegative_integers;
    universal.prune_nonpositive_subtrees = options.prune_nonpositive_subtrees;
    switch (options.strategy) {
      case StrategyKind::kLTilde:
        return std::make_unique<LTildeEstimator>(data, universal, rng);
      case StrategyKind::kHTilde:
        return std::make_unique<HTildeEstimator>(data, universal, rng);
      case StrategyKind::kHBar:
        return std::make_unique<HBarEstimator>(data, universal, rng);
      case StrategyKind::kWavelet: {
        WaveletOptions wavelet;
        wavelet.epsilon = options.epsilon;
        wavelet.round_to_nonnegative_integers =
            options.round_to_nonnegative_integers;
        return std::make_unique<WaveletEstimator>(data, wavelet, rng);
      }
      case StrategyKind::kAuto:
        break;
    }
    DPHIST_CHECK_MSG(false, "the oracle needs a resolved strategy");
    return nullptr;
  }

  std::int64_t domain_size_;
  std::int64_t width_;
  std::vector<std::unique_ptr<RangeCountEstimator>> shards_;
};

}  // namespace dphist

#endif  // DPHIST_TESTS_SUPPORT_SHARD_ORACLE_H_
