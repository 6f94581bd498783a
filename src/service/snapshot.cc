#include "service/snapshot.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "estimators/universal.h"
#include "estimators/wavelet.h"

namespace dphist {
namespace {

/// The counts of `data` restricted to [lo, hi], as a shard-local
/// histogram over positions 0..hi-lo.
Histogram SliceHistogram(const Histogram& data, std::int64_t lo,
                         std::int64_t hi) {
  const std::vector<double>& counts = data.counts();
  std::vector<double> slice(counts.begin() + lo, counts.begin() + hi + 1);
  return Histogram(std::move(slice), data.domain().attribute());
}

UniversalOptions UniversalOptionsOf(const SnapshotOptions& options) {
  UniversalOptions universal;
  universal.epsilon = options.epsilon;
  universal.branching = options.branching;
  universal.round_to_nonnegative_integers =
      options.round_to_nonnegative_integers;
  universal.prune_nonpositive_subtrees = options.prune_nonpositive_subtrees;
  return universal;
}

WaveletOptions WaveletOptionsOf(const SnapshotOptions& options) {
  WaveletOptions wavelet;
  wavelet.epsilon = options.epsilon;
  wavelet.round_to_nonnegative_integers =
      options.round_to_nonnegative_integers;
  return wavelet;
}

/// The most tree nodes one release may hold across its shards: 16 GiB of
/// node doubles, far above any real release (n = 2^24 at branching 2 is
/// about 2^25 nodes).
constexpr std::int64_t kMaxReleaseTreeNodes = std::int64_t{1} << 31;

/// Nodes in the tree TreeLayout pads `leaves` positions into, or
/// kMaxReleaseTreeNodes + 1 as soon as the count passes that cap, so no
/// branching can overflow it.
std::int64_t CappedTreeNodes(std::int64_t leaves, std::int64_t branching) {
  std::int64_t level = 1;  // nodes on the deepest level so far
  std::int64_t total = 1;
  while (level < leaves) {
    if (level > kMaxReleaseTreeNodes / branching) {
      return kMaxReleaseTreeNodes + 1;
    }
    level *= branching;
    total += level;
    if (total > kMaxReleaseTreeNodes) return kMaxReleaseTreeNodes + 1;
  }
  return total;
}

/// Draws one shard's release with the plain constructors, whose CHECKs
/// Build's gate has already satisfied. Null only for a StrategyKind no
/// case handles (kAuto, which Build also refuses first).
std::unique_ptr<RangeCountEstimator> BuildShard(
    const Histogram& shard_data, const SnapshotOptions& options, Rng* rng) {
  switch (options.strategy) {
    case StrategyKind::kLTilde:
      return std::make_unique<LTildeEstimator>(
          shard_data, UniversalOptionsOf(options), rng);
    case StrategyKind::kHTilde:
      return std::make_unique<HTildeEstimator>(
          shard_data, UniversalOptionsOf(options), rng);
    case StrategyKind::kHBar:
      return std::make_unique<HBarEstimator>(
          shard_data, UniversalOptionsOf(options), rng);
    case StrategyKind::kWavelet:
      return std::make_unique<WaveletEstimator>(
          shard_data, WaveletOptionsOf(options), rng);
    case StrategyKind::kAuto:
      break;
  }
  return nullptr;
}

}  // namespace

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLTilde:
      return "ltilde";
    case StrategyKind::kHTilde:
      return "htilde";
    case StrategyKind::kHBar:
      return "hbar";
    case StrategyKind::kWavelet:
      return "wavelet";
    case StrategyKind::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<StrategyKind> ParseStrategyKind(const std::string& name) {
  if (name == "ltilde" || name == "L~") return StrategyKind::kLTilde;
  if (name == "htilde" || name == "H~") return StrategyKind::kHTilde;
  if (name == "hbar" || name == "H-bar") return StrategyKind::kHBar;
  if (name == "wavelet") return StrategyKind::kWavelet;
  if (name == "auto") return StrategyKind::kAuto;
  return Status::InvalidArgument("unknown strategy: " + name);
}

std::int64_t ShardWidth(std::int64_t domain_size, std::int64_t shards) {
  const std::int64_t count = std::min(shards, domain_size);
  return (domain_size + count - 1) / count;
}

Status CheckReleaseOptions(const SnapshotOptions& options,
                           std::int64_t domain_size) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.branching < 2) {
    return Status::InvalidArgument("branching must be >= 2");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (domain_size < 1) {
    return Status::InvalidArgument("domain must be non-empty");
  }
  if (options.strategy == StrategyKind::kHTilde ||
      options.strategy == StrategyKind::kHBar ||
      options.strategy == StrategyKind::kAuto) {
    const std::int64_t width = ShardWidth(domain_size, options.shards);
    const std::int64_t count = (domain_size + width - 1) / width;
    const std::int64_t full = CappedTreeNodes(width, options.branching);
    const std::int64_t last =
        CappedTreeNodes(domain_size - (count - 1) * width, options.branching);
    // (count - 1) * full + last <= kMaxReleaseTreeNodes, by division.
    if (last > kMaxReleaseTreeNodes ||
        count - 1 > (kMaxReleaseTreeNodes - last) / full) {
      return Status::InvalidArgument(
          "branching " + std::to_string(options.branching) +
          " over shards of width " + std::to_string(width) +
          " would pad the release's trees past 2^31 nodes");
    }
  }
  return Status::Ok();
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Build(
    const Histogram& data, const SnapshotOptions& options,
    std::uint64_t epoch, Rng* rng) {
  if (rng == nullptr) {
    return Status::InvalidArgument("Snapshot::Build needs an RNG");
  }
  const std::int64_t n = data.size();
  Status valid = CheckReleaseOptions(options, n);
  if (!valid.ok()) return valid;
  if (options.strategy == StrategyKind::kAuto) {
    return Status::InvalidArgument(
        "auto strategy must be resolved by the planner before Build "
        "(the EpochManager resolves it for serve --strategy auto)");
  }

  const std::int64_t width = ShardWidth(n, options.shards);
  const std::int64_t count = (n + width - 1) / width;

  // Fork every shard stream up front, in shard order, so the release is
  // reproducible regardless of how the estimator constructors consume
  // their streams AND regardless of how the build below is scheduled.
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) shard_rngs.push_back(rng->Fork());

  std::vector<std::unique_ptr<RangeCountEstimator>> shards(
      static_cast<std::size_t>(count));
  if (count == 1) {
    // The one shard is the whole histogram: read it in place.
    shards[0] = BuildShard(data, options, &shard_rngs[0]);
  } else {
    ParallelFor(count, ResolveThreadCount(options.build_threads),
                [&](std::int64_t i) {
                  const std::int64_t lo = i * width;
                  const std::int64_t hi = std::min(n - 1, lo + width - 1);
                  shards[static_cast<std::size_t>(i)] =
                      BuildShard(SliceHistogram(data, lo, hi), options,
                                 &shard_rngs[static_cast<std::size_t>(i)]);
                });
  }
  for (const std::unique_ptr<RangeCountEstimator>& shard : shards) {
    if (shard == nullptr) {
      return Status::Internal("cannot build a shard for an unknown strategy");
    }
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(options, epoch, n, width, std::move(shards)));
}

namespace {

Result<std::unique_ptr<RangeCountEstimator>> RestoreShard(
    std::int64_t shard_domain, const SnapshotOptions& options,
    std::vector<double> state) {
  switch (options.strategy) {
    case StrategyKind::kLTilde: {
      if (static_cast<std::int64_t>(state.size()) != shard_domain) {
        return Status::IoError("persisted L~ shard has the wrong width");
      }
      Result<std::unique_ptr<LTildeEstimator>> restored =
          LTildeEstimator::Restore(UniversalOptionsOf(options),
                                   std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kHTilde: {
      Result<std::unique_ptr<HTildeEstimator>> restored =
          HTildeEstimator::Restore(shard_domain, UniversalOptionsOf(options),
                                   std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kHBar: {
      Result<std::unique_ptr<HBarEstimator>> restored =
          HBarEstimator::Restore(shard_domain, UniversalOptionsOf(options),
                                 std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kWavelet: {
      if (static_cast<std::int64_t>(state.size()) != shard_domain) {
        return Status::IoError("persisted wavelet shard has the wrong width");
      }
      Result<std::unique_ptr<WaveletEstimator>> restored =
          WaveletEstimator::Restore(WaveletOptionsOf(options),
                                    std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kAuto:
      break;
  }
  return Status::IoError("persisted snapshot has an unrestorable strategy");
}

}  // namespace

Result<std::shared_ptr<const Snapshot>> Snapshot::Restore(
    const SnapshotOptions& options, std::uint64_t epoch,
    std::int64_t domain_size,
    std::vector<std::vector<double>> shard_states) {
  const std::int64_t n = domain_size;
  Status valid = CheckReleaseOptions(options, n);
  if (!valid.ok()) return valid;
  const std::int64_t width = ShardWidth(n, options.shards);
  const std::int64_t count = (n + width - 1) / width;
  if (static_cast<std::int64_t>(shard_states.size()) != count) {
    return Status::IoError(
        "persisted snapshot shard count does not match its options");
  }
  std::vector<std::unique_ptr<RangeCountEstimator>> shards;
  shards.reserve(shard_states.size());
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t lo = i * width;
    const std::int64_t hi = std::min(n - 1, lo + width - 1);
    Result<std::unique_ptr<RangeCountEstimator>> shard =
        RestoreShard(hi - lo + 1, options,
                     std::move(shard_states[static_cast<std::size_t>(i)]));
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(options, epoch, n, width, std::move(shards)));
}

const RangeCountEstimator& Snapshot::shard(std::int64_t index) const {
  DPHIST_CHECK_MSG(index >= 0 && index < shard_count(),
                   "shard index out of range");
  return *shards_[static_cast<std::size_t>(index)];
}

Status Snapshot::ValidateRanges(const Interval* ranges,
                                std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    if (ranges[i].lo() < 0 || ranges[i].hi() >= domain_size_) {
      return Status(StatusCode::kOutOfRange,
                    "range [" + std::to_string(ranges[i].lo()) + ", " +
                        std::to_string(ranges[i].hi()) +
                        "] (query " + std::to_string(i + 1) +
                        ") is outside the snapshot's domain [0, " +
                        std::to_string(domain_size_ - 1) + "]");
    }
  }
  return Status::Ok();
}

double Snapshot::RangeCount(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the snapshot's domain");
  const std::int64_t first = range.lo() / shard_width_;
  const std::int64_t last = range.hi() / shard_width_;
  if (first == last) {
    const std::int64_t base = first * shard_width_;
    return shards_[static_cast<std::size_t>(first)]->RangeCount(
        Interval(range.lo() - base, range.hi() - base));
  }
  double total = 0.0;
  for (std::int64_t s = first; s <= last; ++s) {
    const std::int64_t base = s * shard_width_;
    const std::int64_t hi =
        std::min({range.hi(), base + shard_width_ - 1, domain_size_ - 1});
    const std::int64_t lo = std::max(range.lo(), base);
    total += shards_[static_cast<std::size_t>(s)]->RangeCount(
        Interval(lo - base, hi - base));
  }
  return total;
}

void Snapshot::RangeCountsInto(const Interval* ranges, std::size_t count,
                               double* out) const {
  if (shards_.size() == 1) {
    shards_[0]->RangeCountsInto(ranges, count, out);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = RangeCount(ranges[i]);
}

}  // namespace dphist
