// Thread-safe, read-mostly query serving over published DP releases.
//
// QueryService multiplexes any number of concurrent readers over one
// current Snapshot (see snapshot.h). Releases with an answer plan (L~,
// wavelet, consistent H-bar) answer every batch in one pass of the
// columnar engine; the rest (H~ and the default round+prune H-bar) sum
// tree nodes along each range's decomposition. Either way every answer
// is post-processing of the published release, so it is recomputed per
// query rather than cached: recomputing costs no privacy, and unless
// the host is saturated it is cheaper than the probe and insert a cache
// would spend on it. The snapshot pointer is swapped atomically on
// republish, so:
//
//   - readers never block, not even while a publish is building the next
//     release (construction happens outside the swap);
//   - a batch is answered entirely against the single snapshot loaded at
//     its start, so its answers are internally consistent — one epoch,
//     one release — even when a swap lands mid-batch.
//
// A publish carries a resolved strategy. StrategyKind::kAuto is resolved
// in one place, the EpochManager (runtime/epoch_manager.h), which plans
// against the lock-free per-octave histogram of every query length this
// service has answered (ObservedWorkload). Those octaves are the
// service's one record of its traffic: each stands for one
// representative length, and no range positions are kept.
//
// Lifetime: readers hold a shared_ptr to the snapshot for the duration
// of a batch; a replaced snapshot is destroyed when its last in-flight
// batch finishes.

#ifndef DPHIST_SERVICE_QUERY_SERVICE_H_
#define DPHIST_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "planner/planner.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"

namespace dphist {

// ---- Retired surface, kept for perfbench only --------------------------
// The LRU answer cache and the service's own kAuto planning are gone,
// but the perfbench/ sources still read these names, and those sources
// change only in a benchmark change of their own. Delete this block,
// the two base-class mentions below and TryQueryBatch's `cache_hits`
// argument in the next change to perfbench/.
struct AnswerCache {
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
  };
};
struct RetiredServiceOptions {
  std::int64_t cache_capacity = 0;  // accepted and ignored
  planner::PlannerOptions planner;  // accepted and ignored
};
class RetiredCacheCounters {
 public:
  AnswerCache::Stats cache_stats() const { return {}; }  // always zero
  std::int64_t cache_size() const { return 0; }
};
// ---- end of the retired surface -----------------------------------------

/// Serving-side knobs (the per-release knobs live in SnapshotOptions).
/// Only the retired fields above remain.
struct QueryServiceOptions : RetiredServiceOptions {};

/// Concurrent range-count server over atomically swappable snapshots.
class QueryService : public RetiredCacheCounters {
 public:
  /// The options hold only the retired fields, which are ignored.
  explicit QueryService(const QueryServiceOptions& /*options*/ = {}) {}

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Builds a release from `data` and atomically swaps it in as the
  /// current snapshot with a fresh monotonically increasing epoch.
  /// Building happens outside the swap, so concurrent readers keep
  /// answering from the previous snapshot until the new one is ready.
  /// Concurrent publishers are serialized; readers are never blocked.
  /// `options.strategy` must be resolved (Snapshot::Build refuses kAuto).
  Result<std::shared_ptr<const Snapshot>> Publish(
      const Histogram& data, const SnapshotOptions& options,
      std::uint64_t seed);

  /// A release that has been built but is not yet visible to readers.
  /// Holds the publish token (publishing_), so no other publish can
  /// interleave between building and committing (or abandoning) it.
  /// Destroying a PendingPublish without committing aborts the publish:
  /// the token is released, readers never saw the snapshot, and its
  /// epoch number is reused by the next publish. The EpochManager
  /// threads its durable WAL append between BuildForPublish and
  /// CommitPublish so the in-memory swap becomes visible only after the
  /// spend that paid for it is on disk.
  ///
  /// (A condition token rather than a moved std::unique_lock: each
  /// critical section stays self-contained, which keeps the serialization
  /// verifiable by the thread-safety analysis — a lock whose ownership
  /// travels across function boundaries is invisible to it.)
  class PendingPublish {
   public:
    PendingPublish(PendingPublish&& other) noexcept
        : service_(std::exchange(other.service_, nullptr)),
          snapshot_(std::move(other.snapshot_)) {}
    PendingPublish& operator=(PendingPublish&& other) noexcept {
      if (this != &other) {
        Abandon();
        service_ = std::exchange(other.service_, nullptr);
        snapshot_ = std::move(other.snapshot_);
      }
      return *this;
    }
    ~PendingPublish() { Abandon(); }

    const std::shared_ptr<const Snapshot>& snapshot() const {
      return snapshot_;
    }
    std::uint64_t epoch() const { return snapshot_->epoch(); }

   private:
    friend class QueryService;
    PendingPublish(QueryService* service,
                   std::shared_ptr<const Snapshot> snapshot)
        : service_(service), snapshot_(std::move(snapshot)) {}

    /// Releases the publish token when still held (uncommitted).
    void Abandon();

    QueryService* service_;  // null once committed or moved from
    std::shared_ptr<const Snapshot> snapshot_;
  };

  /// The first half of Publish: assigns the next epoch and builds the
  /// release — without making it visible. Pass the result to
  /// CommitPublish to swap it in, or drop it to abandon the publish
  /// entirely.
  Result<PendingPublish> BuildForPublish(const Histogram& data,
                                         const SnapshotOptions& options,
                                         std::uint64_t seed);

  /// The second half of Publish: atomically swaps the pending snapshot
  /// in. Returns the now-current snapshot.
  std::shared_ptr<const Snapshot> CommitPublish(PendingPublish pending);

  /// Installs a snapshot recovered from durable storage as the current
  /// release. Unlike Publish this assigns no new epoch — the snapshot
  /// keeps the epoch it was persisted under, which must be greater than
  /// the service's current epoch (recovery happens before fresh
  /// publishes, so in practice into an empty service).
  Result<std::shared_ptr<const Snapshot>> PublishRestored(
      std::shared_ptr<const Snapshot> snapshot);

  /// The currently published snapshot; null before the first Publish.
  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// The one answering call. Answers `count` ranges into `out`, all
  /// against the single snapshot current when the batch started, and
  /// returns that snapshot's epoch. A snapshot with an answer plan
  /// answers the whole batch in one engine pass; any other sums each
  /// range's decomposition nodes. Both paths perform zero heap
  /// allocations once warm. Every query's length is recorded in the
  /// observed-workload histogram that kAuto planning consumes.
  /// Answering before the first Publish or asking for a range outside
  /// the snapshot's domain returns a Status (surfaced as a session
  /// "error:" line) and answers nothing. `cache_hits` is part of the
  /// retired answer-cache surface above: never written.
  Result<std::uint64_t> TryQueryBatch(
      const Interval* ranges, std::size_t count, double* out,
      std::uint64_t* cache_hits = nullptr) const;

  /// The validation half of TryQueryBatch alone, answering nothing
  /// (perfbench times the validation layer through it).
  Status ValidateBatch(const Interval* ranges, std::size_t count) const;

  /// The traffic seen so far as a planner profile over `domain_size`
  /// positions: query lengths are counted per octave at record time and
  /// each non-empty octave contributes its
  /// planner::WorkloadProfile::OctaveMidpoint. Empty when nothing has
  /// been answered yet.
  planner::WorkloadProfile ObservedWorkload(std::int64_t domain_size) const;

  /// Total queries answered so far (sums the stripes' running totals).
  /// The EpochManager's every-N and drift triggers anchor on this.
  std::uint64_t observed_query_count() const;

  /// Epoch of the current snapshot; 0 before the first Publish.
  std::uint64_t current_epoch() const;

 private:
  /// Blocks until no other publish is in flight and takes the publish
  /// token; returns the epoch the next publish will use (stable while
  /// the token is held, because only CommitPublish advances it).
  std::uint64_t AcquirePublishToken() DPHIST_EXCLUDES(publish_mutex_);
  /// Releases the token without committing (failed or abandoned build);
  /// the epoch reserved by Acquire is reused by the next publisher.
  void ReleasePublishToken() DPHIST_EXCLUDES(publish_mutex_);

  /// TryQueryBatch's answering core, running against an already-loaded
  /// and validated snapshot. A snapshot with an AnswerPlan goes to the
  /// batch answer engine whole; walker strategies go to
  /// Snapshot::RangeCountsInto whole.
  std::uint64_t QueryBatchOn(const Snapshot& snap, const Interval* ranges,
                             std::size_t count, double* out) const;

  /// One counter per length octave (planner::WorkloadProfile::OctaveOf).
  static constexpr std::size_t kOctaves = planner::WorkloadProfile::kOctaves;
  /// Counter stripes, selected by thread id once per batch, so reader
  /// threads on different stripes never contend on a hot bucket's cache
  /// line; ObservedWorkload sums across stripes.
  static constexpr std::size_t kLengthStripes = 8;

  /// Serializes publishers so epochs increase in publish order. The
  /// mutex itself is only held for short flag/epoch updates; the
  /// publishing_ token is what is held across an entire Snapshot::Build,
  /// so a builder never blocks anyone who just needs the mutex.
  Mutex publish_mutex_;
  CondVar publish_cv_;  // wakes publishers waiting for the token
  /// The publish token: true while one publisher is building or
  /// committing. Taken by AcquirePublishToken, released by
  /// CommitPublish or PendingPublish::Abandon.
  bool publishing_ DPHIST_GUARDED_BY(publish_mutex_) = false;
  std::uint64_t last_epoch_ DPHIST_GUARDED_BY(publish_mutex_) = 0;
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  /// One stripe's counters. octaves[b] counts answered queries with
  /// 2^b <= length < 2^(b+1); the read path adds a whole batch's count
  /// per octave with one relaxed add, and the batch size to `total`, so
  /// observed_query_count reads one counter per stripe. A stripe is 64
  /// counters aligned to 64 bytes, so `total` shares its cache line only
  /// with its own stripe's short-length octaves.
  struct alignas(64) LengthStripe {
    std::atomic<std::uint64_t> total{0};
    std::array<std::atomic<std::uint64_t>, kOctaves> octaves{};
  };
  mutable std::array<LengthStripe, kLengthStripes> observed_lengths_{};
};

}  // namespace dphist

#endif  // DPHIST_SERVICE_QUERY_SERVICE_H_
