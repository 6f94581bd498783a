// One published epsilon-DP release, as data.
//
// A release is post-processing of one noisy measurement (paper Section
// 2.2), so a Snapshot is a few arrays: each shard's release state — L~
// and wavelet leaves, H~ noisy nodes, H-bar final nodes, the vectors
// snapshot.db stores — drawn in Build by the same per-strategy draw
// functions the paper's estimators call (estimators/universal.h,
// estimators/wavelet.h), plus how to answer from them. A strategy whose
// every range is a difference of two leaf prefix sums (L~, wavelet, and
// H-bar whose tree passed IsPrefixConsistent) gets one engine::AnswerPlan
// folded straight from the leaves; H~ and round+prune H-bar keep each
// shard's TreeLayout and walk the node vector. No estimator object
// lives in a release. Snapshots are immutable after Build or Restore, so
// any number of threads may answer ranges from one concurrently with no
// synchronization; republishing at a new epsilon swaps in a *new*
// Snapshot rather than mutating this one.
//
// Sharding: the domain is split into contiguous shards of equal width
// (ShardWidth) and each shard's state is drawn over its sub-histogram.
// Every record lives in exactly one shard, so the per-shard releases
// compose in parallel (McSherry's parallel composition) and the whole
// snapshot is still epsilon-DP. A range spanning shards is answered by
// summing the clipped per-shard answers in shard order; since shard
// noise draws are independent, the exact variance of a spanning answer
// is the sum of the per-shard closed-form variances — which is what the
// conformance harness in tests/support/ checks.

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
#include "tree/tree_layout.h"

namespace dphist {

/// Which strategy a snapshot publishes.
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
  /// Section 5.2 protocol knobs, forwarded to the draw functions.
  bool round_to_nonnegative_integers = true;
  bool prune_nonpositive_subtrees = true;
  /// Worker threads for Build's per-shard draws; 0 = hardware
  /// concurrency. Never affects the release's bits: shard RNG streams
  /// are forked in shard order before any worker runs, so the snapshot
  /// is a pure function of (data, options, rng) at any count.
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
  /// Draws every shard's state, fanning the per-shard draws out over
  /// options.build_threads workers, then builds the answer plan or the
  /// shard trees. Each shard forks its own stream from `rng` in shard
  /// order before the fan-out, so the release is a deterministic function
  /// of (data, options, rng state) — bit-identical at every thread count,
  /// and to the estimator each shard's draw function also feeds.
  /// The serving layer's one validation gate: fails on a null `rng`,
  /// anything CheckReleaseOptions refuses, or an unresolved kAuto
  /// strategy, before any shard is drawn. A one-shard release reads
  /// `data` in place; only a sharded one copies each shard's slice.
  static Result<std::shared_ptr<const Snapshot>> Build(
      const Histogram& data, const SnapshotOptions& options,
      std::uint64_t epoch, Rng* rng);

  /// Rebuilds a published snapshot from persisted per-shard states (each
  /// shard's shard_state(), in domain order) through the same path Build
  /// takes after its draws. Shard geometry is recomputed by ShardWidth,
  /// so `shard_states.size()` must equal the count Build would have
  /// chosen for (options.shards, domain_size), and each state must have
  /// its strategy's shape over its sub-domain: one double per position
  /// for L~ and wavelet, one per node of the shard's tree for H~ and
  /// H-bar. Each state moves into its shard, so pass the vectors as an
  /// rvalue to copy none. No noise is drawn — answers are bit-identical
  /// to the release that was persisted. Never aborts: options the gate
  /// refuses are an InvalidArgument; a wrong shard count, a wrong shard
  /// shape or an unresolved kAuto is an IoError, so corrupt or stale
  /// state files are refusable.
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
    return static_cast<std::int64_t>(states_.size());
  }

  /// Positions per shard (the last shard may be narrower).
  std::int64_t shard_width() const { return shard_width_; }

  /// Shard `index`'s release state: what snapshot.db persists and
  /// Restore takes back.
  const std::vector<double>& shard_state(std::int64_t index) const {
    return states_[static_cast<std::size_t>(index)];
  }

  /// The prefix rows the batch answer engine (engine/answer_engine.h)
  /// answers from, built once at publish/restore time. Null when any
  /// shard is walked (H~, inconsistent H-bar); RangeCount(s)Into then
  /// serve the release.
  const engine::AnswerPlan* answer_plan() const {
    return trees_.empty() ? plan_.get() : nullptr;
  }

  /// Serving-path validation: Ok iff every range lies inside
  /// [0, domain_size). A violation is an OutOfRange naming the first bad
  /// range — surfaced as a session "error:" line by the transports,
  /// where the walker/engine paths would CHECK-abort.
  Status ValidateRanges(const Interval* ranges, std::size_t count) const;

  /// Estimated count for `range` (must lie within [0, domain_size)).
  /// Sums clipped per-shard answers in shard order, each read from its
  /// plan row or walked from its node vector; bit-identical to the
  /// engine and counted by none of its counters. No heap allocation.
  double RangeCount(const Interval& range) const;

  /// Batched form: fills out[i] with the answer for ranges[i].
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const;

 private:
  /// Takes the drawn or restored states and builds the answer plan
  /// and/or the shard trees for them.
  Snapshot(const SnapshotOptions& options, std::uint64_t epoch,
           std::int64_t domain_size, std::int64_t shard_width,
           std::vector<std::vector<double>> states);

  /// Shard `s`'s answer for its shard-local [lo, hi].
  double ShardAnswer(std::size_t s, std::int64_t lo, std::int64_t hi) const;

  SnapshotOptions options_;
  std::uint64_t epoch_;
  std::int64_t domain_size_;
  std::int64_t shard_width_;
  /// Each shard's release state, in domain order.
  std::vector<std::vector<double>> states_;
  /// The prefix rows of every shard a prefix difference answers; null
  /// when none does.
  std::unique_ptr<const engine::AnswerPlan> plan_;
  /// One tree per shard when any shard is walked; empty otherwise. A
  /// walked shard is one without a row in plan_.
  std::vector<TreeLayout> trees_;
};

}  // namespace dphist

#endif  // DPHIST_SERVICE_SNAPSHOT_H_
