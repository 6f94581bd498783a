// Thread-safe LRU cache of range answers, keyed on (epoch, range).
//
// The serving layer memoizes range counts of walker-served releases (H~
// and round+prune H-bar) so repeated traffic — many clients asking the
// same popular ranges — pays one decomposition walk and then a hash
// lookup. Releases with an answer plan never come here: their engine
// recompute is cheaper than a lookup. The snapshot epoch is part of the
// key, so a republish never needs invalidation: entries from an old
// epoch simply stop being asked for and age out of the LRU order.
//
// Concurrency: the key space is partitioned across independent lock
// shards (hash-selected), each holding its own mutex, hash map, and LRU
// list. Readers on different shards never contend; within a shard, both
// hits and misses take one short critical section. A concurrent miss on
// the same key may compute the answer twice and insert twice — the
// second insert overwrites with an identical value (answers are a pure
// function of the immutable snapshot), so the race is benign.

#ifndef DPHIST_SERVICE_ANSWER_CACHE_H_
#define DPHIST_SERVICE_ANSWER_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "domain/interval.h"

namespace dphist {

/// Sharded LRU map from (epoch, lo, hi) to a cached answer.
class AnswerCache {
 public:
  /// `capacity` is the minimum total number of cached answers across all
  /// lock shards (the effective total is capacity rounded up to a
  /// multiple of the lock shards, so a hot set that fits the declared
  /// capacity never thrashes); 0 disables the cache entirely (Lookup
  /// always misses, Insert is a no-op). `lock_shards` is rounded up to a
  /// power of two and shrunk if the capacity cannot fill every shard.
  explicit AnswerCache(std::int64_t capacity, std::int64_t lock_shards = 16);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// True and fills `*out` when (epoch, range) is cached; refreshes the
  /// entry's LRU position.
  bool Lookup(std::uint64_t epoch, const Interval& range, double* out);

  /// Caches the answer, evicting the least-recently-used entry of the
  /// key's lock shard when that shard is full.
  void Insert(std::uint64_t epoch, const Interval& range, double answer);

  /// Batched Lookup: fills out[i] and sets hit[i] for every cached
  /// ranges[i]. Keys are grouped by lock shard first, so each shard's
  /// mutex is acquired at most once per internal chunk of the batch
  /// instead of once per query — the lock-amortization QueryBatch relies
  /// on. No heap allocation.
  void LookupMany(std::uint64_t epoch, const Interval* ranges,
                  std::size_t count, double* out, bool* hit);

  /// Batched Insert of every entry whose skip[i] is false (pass nullptr
  /// to insert all), with the same per-shard lock batching. Typically
  /// called with LookupMany's hit array as `skip` so only the misses
  /// just computed are inserted.
  void InsertMany(std::uint64_t epoch, const Interval* ranges,
                  const double* answers, std::size_t count,
                  const bool* skip);

  /// Drops every entry from an epoch older than `epoch`, freeing their
  /// capacity immediately instead of waiting for LRU aging; returns the
  /// number dropped (also counted in stats().epoch_evictions). The
  /// QueryService calls this on every snapshot swap, so entries from a
  /// replaced release are never reachable afterwards.
  std::int64_t EvictOlderEpochs(std::uint64_t epoch);

  /// Drops every entry (stats are kept).
  void Clear();

  bool enabled() const { return capacity_ > 0; }
  std::int64_t capacity() const { return capacity_; }

  /// Entries currently cached, summed over lock shards.
  std::int64_t size() const;

  /// Monotonic counters; cheap relaxed atomics, safe to read anytime.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;        // LRU capacity evictions
    std::uint64_t epoch_evictions = 0;  // proactive EvictOlderEpochs drops
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t epoch;
    std::int64_t lo;
    std::int64_t hi;
    bool operator==(const Key& other) const {
      return epoch == other.epoch && lo == other.lo && hi == other.hi;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    double answer;
  };
  struct Shard {
    Mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru DPHIST_GUARDED_BY(mutex);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        DPHIST_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const Key& key);

  /// Queries per stack-allocated batching chunk in LookupMany/InsertMany.
  static constexpr std::size_t kBatchChunk = 64;

  std::int64_t capacity_;
  std::int64_t per_shard_capacity_;
  std::size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> epoch_evictions_{0};
};

}  // namespace dphist

#endif  // DPHIST_SERVICE_ANSWER_CACHE_H_
