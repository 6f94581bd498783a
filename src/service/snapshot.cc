#include "service/snapshot.h"

#include <algorithm>
#include <cmath>
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

/// True for the strategies whose release state is a node vector.
bool IsTreeStrategy(StrategyKind strategy) {
  return strategy == StrategyKind::kHTilde || strategy == StrategyKind::kHBar;
}

/// Draws one shard's release state with its strategy's draw function,
/// whose CHECKs Build's gate has already satisfied. kAuto, which Build
/// refuses first, draws nothing.
std::vector<double> DrawShardState(const Histogram& shard_data,
                                   const SnapshotOptions& options, Rng* rng) {
  switch (options.strategy) {
    case StrategyKind::kLTilde:
      return DrawLTildeLeaves(shard_data, options.epsilon, rng);
    case StrategyKind::kHTilde:
      return DrawHTildeNodes(shard_data, UniversalOptionsOf(options), rng);
    case StrategyKind::kHBar:
      return DrawHBarNodes(shard_data, UniversalOptionsOf(options), rng);
    case StrategyKind::kWavelet:
      return DrawWaveletLeaves(shard_data, WaveletOptionsOf(options), rng);
    case StrategyKind::kAuto:
      break;
  }
  return {};
}

double RoundAnswer(double answer) {
  return answer <= 0.0 ? 0.0 : std::round(answer);
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
  if (!std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be finite");
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
  if (IsTreeStrategy(options.strategy) ||
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
  // reproducible regardless of how the draws consume their streams AND
  // regardless of how the build below is scheduled.
  std::vector<Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) shard_rngs.push_back(rng->Fork());

  std::vector<std::vector<double>> states(static_cast<std::size_t>(count));
  if (count == 1) {
    // The one shard is the whole histogram: read it in place.
    states[0] = DrawShardState(data, options, &shard_rngs[0]);
  } else {
    ParallelFor(count, ResolveThreadCount(options.build_threads),
                [&](std::int64_t i) {
                  const std::int64_t lo = i * width;
                  const std::int64_t hi = std::min(n - 1, lo + width - 1);
                  states[static_cast<std::size_t>(i)] =
                      DrawShardState(SliceHistogram(data, lo, hi), options,
                                     &shard_rngs[static_cast<std::size_t>(i)]);
                });
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(options, epoch, n, width, std::move(states)));
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Restore(
    const SnapshotOptions& options, std::uint64_t epoch,
    std::int64_t domain_size,
    std::vector<std::vector<double>> shard_states) {
  const std::int64_t n = domain_size;
  Status valid = CheckReleaseOptions(options, n);
  if (!valid.ok()) return valid;
  if (options.strategy == StrategyKind::kAuto) {
    return Status::IoError("persisted snapshot has an unrestorable strategy");
  }
  const std::int64_t width = ShardWidth(n, options.shards);
  const std::int64_t count = (n + width - 1) / width;
  if (static_cast<std::int64_t>(shard_states.size()) != count) {
    return Status::IoError(
        "persisted snapshot shard count does not match its options");
  }
  // The one shape check: a leaf per position, or a node per tree node
  // (the gate above bounds every tree, so CappedTreeNodes counts it).
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t shard_domain = std::min(width, n - i * width);
    const std::int64_t expected =
        IsTreeStrategy(options.strategy)
            ? CappedTreeNodes(shard_domain, options.branching)
            : shard_domain;
    const auto got =
        static_cast<std::int64_t>(shard_states[static_cast<std::size_t>(i)]
                                      .size());
    if (got != expected) {
      return Status::IoError(
          std::string("persisted ") + StrategyKindName(options.strategy) +
          " shard " + std::to_string(i) + " holds " + std::to_string(got) +
          " doubles, not the " + std::to_string(expected) +
          " its shape needs");
    }
  }
  return std::shared_ptr<const Snapshot>(
      new Snapshot(options, epoch, n, width, std::move(shard_states)));
}

Snapshot::Snapshot(const SnapshotOptions& options, std::uint64_t epoch,
                   std::int64_t domain_size, std::int64_t shard_width,
                   std::vector<std::vector<double>> states)
    : options_(options),
      epoch_(epoch),
      domain_size_(domain_size),
      shard_width_(shard_width),
      states_(std::move(states)) {
  // Each shard's leaves, for the plan; null for a shard that is walked.
  std::vector<const double*> leaves(states_.size());
  bool round = options_.round_to_nonnegative_integers;
  if (IsTreeStrategy(options_.strategy)) {
    // H~ always walks, and so does an H-bar shard whose tree fails the
    // consistency check; a consistent H-bar shard is served from the
    // leaf level of its node vector, read in place, and its answers are
    // never rounded (its rounding happened at node level).
    round = false;
    bool walked = false;
    std::vector<TreeLayout> trees;
    trees.reserve(states_.size());
    for (std::size_t s = 0; s < states_.size(); ++s) {
      const std::int64_t lo = static_cast<std::int64_t>(s) * shard_width_;
      trees.emplace_back(std::min(shard_width_, domain_size_ - lo),
                         options_.branching);
      if (options_.strategy == StrategyKind::kHBar &&
          IsPrefixConsistent(trees.back(), states_[s])) {
        leaves[s] = LeafLevel(trees.back(), states_[s]);
      } else {
        walked = true;
      }
    }
    if (walked) trees_ = std::move(trees);
  } else {
    for (std::size_t s = 0; s < states_.size(); ++s) {
      leaves[s] = states_[s].data();
    }
  }
  if (std::any_of(leaves.begin(), leaves.end(),
                  [](const double* p) { return p != nullptr; })) {
    plan_ = engine::BuildAnswerPlan(leaves, domain_size_, shard_width_, round);
  }
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

double Snapshot::ShardAnswer(std::size_t s, std::int64_t lo,
                             std::int64_t hi) const {
  if (plan_ != nullptr) {
    const std::int64_t offset = plan_->offsets[s];
    if (offset >= 0) {
      const double* row = plan_->prefix.data() + offset;
      const double answer = row[hi + 1] - row[lo];
      return plan_->round_answers ? RoundAnswer(answer) : answer;
    }
  }
  const double sum = DecompositionSum(trees_[s], states_[s], Interval(lo, hi));
  return options_.strategy == StrategyKind::kHTilde &&
                 options_.round_to_nonnegative_integers
             ? RoundAnswer(sum)
             : sum;
}

double Snapshot::RangeCount(const Interval& range) const {
  // dphist-lint: allow(serving-check) each range already passed ValidateRanges
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the snapshot's domain");
  const std::int64_t first = range.lo() / shard_width_;
  const std::int64_t last = range.hi() / shard_width_;
  if (first == last) {
    const std::int64_t base = first * shard_width_;
    return ShardAnswer(static_cast<std::size_t>(first), range.lo() - base,
                       range.hi() - base);
  }
  double total = 0.0;
  for (std::int64_t s = first; s <= last; ++s) {
    const std::int64_t base = s * shard_width_;
    const std::int64_t hi =
        std::min({range.hi(), base + shard_width_ - 1, domain_size_ - 1});
    const std::int64_t lo = std::max(range.lo(), base);
    total += ShardAnswer(static_cast<std::size_t>(s), lo - base, hi - base);
  }
  return total;
}

void Snapshot::RangeCountsInto(const Interval* ranges, std::size_t count,
                               double* out) const {
  if (states_.size() == 1) {
    // One shard: no shard to locate, so no division per range.
    for (std::size_t i = 0; i < count; ++i) {
      // dphist-lint: allow(serving-check) ranges passed ValidateRanges
      DPHIST_CHECK_MSG(ranges[i].lo() >= 0 && ranges[i].hi() < domain_size_,
                       "range outside the snapshot's domain");
      out[i] = ShardAnswer(0, ranges[i].lo(), ranges[i].hi());
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = RangeCount(ranges[i]);
}

}  // namespace dphist
