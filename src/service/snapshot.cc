#include "service/snapshot.h"

#include <algorithm>
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

/// Serving-path shard construction: every failure (including a
/// StrategyKind no case handles, which older revisions CHECK-aborted
/// on) is a Status the session layer can surface as an error line. The
/// validating Create factories re-check the per-shard inputs, so a
/// corrupted slice can never abort a live server.
Result<std::unique_ptr<RangeCountEstimator>> BuildShard(
    const Histogram& shard_data, const SnapshotOptions& options, Rng* rng) {
  UniversalOptions universal;
  universal.epsilon = options.epsilon;
  universal.branching = options.branching;
  universal.round_to_nonnegative_integers =
      options.round_to_nonnegative_integers;
  universal.prune_nonpositive_subtrees = options.prune_nonpositive_subtrees;
  switch (options.strategy) {
    case StrategyKind::kLTilde: {
      Result<std::unique_ptr<LTildeEstimator>> built =
          LTildeEstimator::Create(shard_data, universal, rng);
      if (!built.ok()) return built.status();
      return std::unique_ptr<RangeCountEstimator>(std::move(built).value());
    }
    case StrategyKind::kHTilde: {
      Result<std::unique_ptr<HTildeEstimator>> built =
          HTildeEstimator::Create(shard_data, universal, rng);
      if (!built.ok()) return built.status();
      return std::unique_ptr<RangeCountEstimator>(std::move(built).value());
    }
    case StrategyKind::kHBar: {
      Result<std::unique_ptr<HBarEstimator>> built =
          HBarEstimator::Create(shard_data, universal, rng);
      if (!built.ok()) return built.status();
      return std::unique_ptr<RangeCountEstimator>(std::move(built).value());
    }
    case StrategyKind::kWavelet: {
      WaveletOptions wavelet;
      wavelet.epsilon = options.epsilon;
      wavelet.round_to_nonnegative_integers =
          options.round_to_nonnegative_integers;
      Result<std::unique_ptr<WaveletEstimator>> built =
          WaveletEstimator::Create(shard_data, wavelet, rng);
      if (!built.ok()) return built.status();
      return std::unique_ptr<RangeCountEstimator>(std::move(built).value());
    }
    case StrategyKind::kAuto:
      break;  // rejected in Build before any shard is constructed
  }
  return Status::Internal("cannot build a shard for an unknown strategy");
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

Result<std::shared_ptr<const Snapshot>> Snapshot::Build(
    const Histogram& data, const SnapshotOptions& options,
    std::uint64_t epoch, Rng* rng) {
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.branching < 2) {
    return Status::InvalidArgument("branching must be >= 2");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.strategy == StrategyKind::kAuto) {
    return Status::InvalidArgument(
        "auto strategy must be resolved by the planner before Build "
        "(QueryService::Publish and serve --strategy auto resolve it)");
  }
  const std::int64_t n = data.size();
  if (n < 1) return Status::InvalidArgument("domain must be non-empty");

  const std::int64_t requested = std::min(options.shards, n);
  const std::int64_t width = (n + requested - 1) / requested;
  const std::int64_t count = (n + width - 1) / width;

  // Fork every shard stream up front, in shard order, so the release is
  // reproducible regardless of how the estimator constructors consume
  // their streams AND regardless of how the build below is scheduled.
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) shard_rngs.push_back(rng->Fork());

  std::vector<std::unique_ptr<RangeCountEstimator>> shards(
      static_cast<std::size_t>(count));
  std::vector<Status> shard_status(static_cast<std::size_t>(count));
  ParallelFor(count, ResolveThreadCount(options.build_threads),
              [&](std::int64_t i) {
                const std::int64_t lo = i * width;
                const std::int64_t hi = std::min(n - 1, lo + width - 1);
                Result<std::unique_ptr<RangeCountEstimator>> built =
                    BuildShard(SliceHistogram(data, lo, hi), options,
                               &shard_rngs[static_cast<std::size_t>(i)]);
                if (!built.ok()) {
                  shard_status[static_cast<std::size_t>(i)] = built.status();
                  return;
                }
                shards[static_cast<std::size_t>(i)] = std::move(built).value();
              });
  for (const Status& status : shard_status) {
    if (!status.ok()) return status;
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(options, epoch, n, width, std::move(shards)));
}

namespace {

Result<std::unique_ptr<RangeCountEstimator>> RestoreShard(
    std::int64_t shard_domain, const SnapshotOptions& options,
    std::vector<double> state) {
  UniversalOptions universal;
  universal.epsilon = options.epsilon;
  universal.branching = options.branching;
  universal.round_to_nonnegative_integers =
      options.round_to_nonnegative_integers;
  universal.prune_nonpositive_subtrees = options.prune_nonpositive_subtrees;
  switch (options.strategy) {
    case StrategyKind::kLTilde: {
      if (static_cast<std::int64_t>(state.size()) != shard_domain) {
        return Status::IoError("persisted L~ shard has the wrong width");
      }
      Result<std::unique_ptr<LTildeEstimator>> restored =
          LTildeEstimator::Restore(universal, std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kHTilde: {
      Result<std::unique_ptr<HTildeEstimator>> restored =
          HTildeEstimator::Restore(shard_domain, universal, std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kHBar: {
      Result<std::unique_ptr<HBarEstimator>> restored =
          HBarEstimator::Restore(shard_domain, universal, std::move(state));
      if (!restored.ok()) return restored.status();
      return std::unique_ptr<RangeCountEstimator>(
          std::move(restored).value());
    }
    case StrategyKind::kWavelet: {
      if (static_cast<std::int64_t>(state.size()) != shard_domain) {
        return Status::IoError("persisted wavelet shard has the wrong width");
      }
      WaveletOptions wavelet;
      wavelet.epsilon = options.epsilon;
      wavelet.round_to_nonnegative_integers =
          options.round_to_nonnegative_integers;
      Result<std::unique_ptr<WaveletEstimator>> restored =
          WaveletEstimator::Restore(wavelet, std::move(state));
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
    const std::vector<std::vector<double>>& shard_states) {
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
  const std::int64_t n = domain_size;
  const std::int64_t requested = std::min(options.shards, n);
  const std::int64_t width = (n + requested - 1) / requested;
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
    Result<std::unique_ptr<RangeCountEstimator>> shard = RestoreShard(
        hi - lo + 1, options, shard_states[static_cast<std::size_t>(i)]);
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
