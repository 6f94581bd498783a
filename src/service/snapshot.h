// Immutable published estimator state for the serving layer.
//
// A Snapshot is one epsilon-DP release frozen for concurrent reading: it
// owns per-shard range-count estimators (HBar/HTilde/LTilde/wavelet)
// built from one interaction with the private data, plus the epoch
// number the QueryService assigned when publishing it. Snapshots are
// immutable after Build, so any number of threads may answer ranges from
// one concurrently with no synchronization; republishing at a new
// epsilon swaps in a *new* Snapshot rather than mutating this one.
//
// Sharding: the domain is split into contiguous shards of equal width
// (ShardWidth) and each shard gets its own estimator over its
// sub-histogram. Every
// record lives in exactly one shard, so the per-shard releases compose
// in parallel (McSherry's parallel composition) and the whole snapshot
// is still epsilon-DP. A range spanning shards is answered by summing
// the clipped per-shard answers; since shard noise draws are
// independent, the exact variance of a spanning answer is the sum of
// the per-shard closed-form variances — which is what the conformance
// harness in tests/support/ checks.

#ifndef DPHIST_SERVICE_SNAPSHOT_H_
#define DPHIST_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "engine/answer_plan.h"
#include "estimators/range_engine.h"

namespace dphist {

/// Which estimator family a snapshot publishes.
enum class StrategyKind {
  kLTilde,   // noisy unit counts (L~)
  kHTilde,   // noisy hierarchical counts (H~)
  kHBar,     // H~ + constrained inference (H-bar)
  kWavelet,  // Privelet weighted Haar
  kAuto,     // let the cost-based planner pick (src/planner/planner.h);
             // must be resolved before Snapshot::Build
};

/// Short stable name ("ltilde", "htilde", "hbar", "wavelet", "auto").
const char* StrategyKindName(StrategyKind kind);

/// Inverse of StrategyKindName; also accepts the display names
/// ("L~", "H~", "H-bar").
Result<StrategyKind> ParseStrategyKind(const std::string& name);

/// Positions per shard when `domain_size` positions are split into
/// `shards` contiguous shards of equal width, clamped to one position
/// per shard; the last shard may be narrower. The one shard geometry:
/// Snapshot::Build, Snapshot::Restore and the planner's VarianceOracle
/// all call it. Requires domain_size >= 1 and shards >= 1.
std::int64_t ShardWidth(std::int64_t domain_size, std::int64_t shards);

/// Everything that defines one published release.
struct SnapshotOptions {
  /// Privacy parameter of the release (per shard; parallel composition
  /// keeps the whole snapshot at this epsilon).
  double epsilon = 1.0;
  StrategyKind strategy = StrategyKind::kHBar;
  /// Tree branching factor (H~/H-bar only).
  std::int64_t branching = 2;
  /// Number of domain shards; clamped to the domain size. 1 = unsharded.
  std::int64_t shards = 1;
  /// Section 5.2 protocol knobs, forwarded to the estimators.
  bool round_to_nonnegative_integers = true;
  bool prune_nonpositive_subtrees = true;
  /// Worker threads for Build's per-shard estimator construction; 0 =
  /// hardware concurrency. Never affects the release's bits: shard RNG
  /// streams are forked in shard order before any worker runs, so the
  /// snapshot is a pure function of (data, options, rng) at any count.
  std::int64_t build_threads = 1;
};

/// The one release-options gate. Snapshot::Build and Snapshot::Restore
/// apply it, and the planner's oracle and the serve, plan and
/// release-universal commands call it before they plan, open a state
/// directory or write anything. Refuses, as an InvalidArgument, an
/// epsilon that is not positive and finite (NaN included), branching < 2,
/// shards < 1, an empty domain, and,
/// for H~, H-bar and an unresolved kAuto, a release whose shard trees,
/// padded as TreeLayout pads them, would hold more than 2^31 nodes in
/// all (counted without allocating or overflowing). kAuto itself passes:
/// Build refuses it, and the planner resolves it.
Status CheckReleaseOptions(const SnapshotOptions& options,
                           std::int64_t domain_size);

/// One immutable epsilon-DP release, safe for lock-free concurrent reads.
class Snapshot {
 public:
  /// Draws the noise and builds every shard estimator, fanning the
  /// per-shard construction out over options.build_threads workers. Each
  /// shard forks its own stream from `rng` in shard order before the
  /// fan-out, so the release is a deterministic function of
  /// (data, options, rng state) — bit-identical at every thread count.
  /// The serving layer's one validation gate: fails on a null `rng`,
  /// anything CheckReleaseOptions refuses, or an unresolved kAuto
  /// strategy, before any shard exists, and then builds each shard with
  /// its estimator's plain constructor. A one-shard release reads `data`
  /// in place; only a sharded one copies each shard's slice.
  static Result<std::shared_ptr<const Snapshot>> Build(
      const Histogram& data, const SnapshotOptions& options,
      std::uint64_t epoch, Rng* rng);

  /// Rebuilds a published snapshot from persisted per-shard estimator
  /// state (each shard's RangeCountEstimator::SerializableState, in
  /// domain order). Shard geometry is recomputed by ShardWidth, so
  /// `shard_states.size()` must equal the count Build would have chosen
  /// for (options.shards, domain_size); each shard's vector must match
  /// the strategy's expected shape for its sub-domain. Each state moves
  /// into its shard, so pass the vectors as an rvalue to copy none. No
  /// noise is drawn — answers are bit-identical to the release that was
  /// persisted. Fails with a Status (never aborts) on any mismatch, so
  /// corrupt or stale state files are refusable.
  static Result<std::shared_ptr<const Snapshot>> Restore(
      const SnapshotOptions& options, std::uint64_t epoch,
      std::int64_t domain_size,
      std::vector<std::vector<double>> shard_states);

  /// Epoch assigned by the publisher; every answered batch reports it,
  /// so answers from different releases can never be confused.
  std::uint64_t epoch() const { return epoch_; }

  double epsilon() const { return options_.epsilon; }
  StrategyKind strategy() const { return options_.strategy; }
  const SnapshotOptions& options() const { return options_; }

  /// The (unpadded) domain size the release covers.
  std::int64_t domain_size() const { return domain_size_; }

  /// Actual shard count after clamping (>= 1).
  std::int64_t shard_count() const {
    return static_cast<std::int64_t>(shards_.size());
  }

  /// Positions per shard (the last shard may be narrower).
  std::int64_t shard_width() const { return shard_width_; }

  /// The shard estimators, in domain order.
  const RangeCountEstimator& shard(std::int64_t index) const;

  /// The flattened columnar answer state for the batch answer engine
  /// (engine/answer_engine.h), built once at publish/restore time. Null
  /// when any shard answers by decomposition walk (H~, inconsistent
  /// H-bar) — those releases keep the walker path below, which is also
  /// the bit-identity reference the engine is tested against.
  const engine::AnswerPlan* answer_plan() const { return answer_plan_.get(); }

  /// Serving-path validation: Ok iff every range lies inside
  /// [0, domain_size). A violation is an OutOfRange naming the first bad
  /// range — surfaced as a session "error:" line by the transports,
  /// where the walker/engine paths would CHECK-abort.
  Status ValidateRanges(const Interval* ranges, std::size_t count) const;

  /// Estimated count for `range` (must lie within [0, domain_size)).
  /// Sums clipped per-shard answers; no heap allocation.
  double RangeCount(const Interval& range) const;

  /// Batched form: fills out[i] with the answer for ranges[i]. With a
  /// single shard this forwards the whole batch to the estimator's
  /// RangeCountsInto (one virtual dispatch, zero allocations).
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const;

 private:
  Snapshot(SnapshotOptions options, std::uint64_t epoch,
           std::int64_t domain_size, std::int64_t shard_width,
           std::vector<std::unique_ptr<RangeCountEstimator>> shards)
      : options_(options),
        epoch_(epoch),
        domain_size_(domain_size),
        shard_width_(shard_width),
        shards_(std::move(shards)),
        answer_plan_(engine::BuildAnswerPlan(shards_.data(), shard_count(),
                                             domain_size_, shard_width_)) {}

  SnapshotOptions options_;
  std::uint64_t epoch_;
  std::int64_t domain_size_;
  std::int64_t shard_width_;
  std::vector<std::unique_ptr<RangeCountEstimator>> shards_;
  std::unique_ptr<const engine::AnswerPlan> answer_plan_;
};

}  // namespace dphist

#endif  // DPHIST_SERVICE_SNAPSHOT_H_
