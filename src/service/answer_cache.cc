#include "service/answer_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dphist {
namespace {

/// splitmix64 finalizer: cheap, well-mixed 64-bit hash step.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t RoundUpPowerOfTwo(std::int64_t value) {
  std::size_t p = 1;
  while (p < static_cast<std::size_t>(value)) p <<= 1;
  return p;
}

}  // namespace

std::size_t AnswerCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = Mix(key.epoch);
  h = Mix(h ^ static_cast<std::uint64_t>(key.lo));
  h = Mix(h ^ static_cast<std::uint64_t>(key.hi));
  return static_cast<std::size_t>(h);
}

AnswerCache::AnswerCache(std::int64_t capacity, std::int64_t lock_shards)
    : capacity_(capacity > 0 ? capacity : 0) {
  DPHIST_CHECK_MSG(lock_shards >= 1, "lock_shards must be >= 1");
  std::size_t shard_count = RoundUpPowerOfTwo(lock_shards);
  // Never spread the capacity so thin that a shard holds nothing.
  while (shard_count > 1 &&
         capacity_ / static_cast<std::int64_t>(shard_count) < 1) {
    shard_count >>= 1;
  }
  shard_mask_ = shard_count - 1;
  // Ceil-divide so no hot set that fits the declared capacity thrashes;
  // the effective total is capacity rounded up to a shard multiple.
  per_shard_capacity_ =
      capacity_ > 0 ? (capacity_ + static_cast<std::int64_t>(shard_count) -
                       1) /
                          static_cast<std::int64_t>(shard_count)
                    : 0;
  shards_ = std::make_unique<Shard[]>(shard_count);
}

AnswerCache::Shard& AnswerCache::ShardFor(const Key& key) {
  return shards_[KeyHash{}(key)&shard_mask_];
}

bool AnswerCache::Lookup(std::uint64_t epoch, const Interval& range,
                         double* out) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const Key key{epoch, range.lo(), range.hi()};
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->answer;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void AnswerCache::Insert(std::uint64_t epoch, const Interval& range,
                         double answer) {
  if (capacity_ == 0) return;
  const Key key{epoch, range.lo(), range.hi()};
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Benign double-compute race: same immutable snapshot, same answer.
    it->second->answer = answer;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (static_cast<std::int64_t>(shard.lru.size()) >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{key, answer});
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void AnswerCache::LookupMany(std::uint64_t epoch, const Interval* ranges,
                             std::size_t count, double* out, bool* hit) {
  if (capacity_ == 0) {
    for (std::size_t i = 0; i < count; ++i) hit[i] = false;
    misses_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  std::uint64_t found = 0;
  for (std::size_t base = 0; base < count; base += kBatchChunk) {
    const std::size_t chunk = std::min(kBatchChunk, count - base);
    // Group the chunk's keys by lock shard so each shard's mutex is
    // taken once per chunk, not once per query. Stack scratch only.
    std::size_t shard_of[kBatchChunk];
    for (std::size_t i = 0; i < chunk; ++i) {
      const Key key{epoch, ranges[base + i].lo(), ranges[base + i].hi()};
      shard_of[i] = KeyHash{}(key)&shard_mask_;
      hit[base + i] = false;
    }
    bool done[kBatchChunk] = {};
    for (std::size_t i = 0; i < chunk; ++i) {
      if (done[i]) continue;
      Shard& shard = shards_[shard_of[i]];
      MutexLock lock(shard.mutex);
      for (std::size_t j = i; j < chunk; ++j) {
        if (done[j] || shard_of[j] != shard_of[i]) continue;
        done[j] = true;
        const Key key{epoch, ranges[base + j].lo(), ranges[base + j].hi()};
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
          out[base + j] = it->second->answer;
          hit[base + j] = true;
          ++found;
        }
      }
    }
  }
  hits_.fetch_add(found, std::memory_order_relaxed);
  misses_.fetch_add(count - found, std::memory_order_relaxed);
}

void AnswerCache::InsertMany(std::uint64_t epoch, const Interval* ranges,
                             const double* answers, std::size_t count,
                             const bool* skip) {
  if (capacity_ == 0) return;
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  for (std::size_t base = 0; base < count; base += kBatchChunk) {
    const std::size_t chunk = std::min(kBatchChunk, count - base);
    std::size_t shard_of[kBatchChunk];
    bool done[kBatchChunk] = {};
    for (std::size_t i = 0; i < chunk; ++i) {
      if (skip != nullptr && skip[base + i]) {
        done[i] = true;
        continue;
      }
      const Key key{epoch, ranges[base + i].lo(), ranges[base + i].hi()};
      shard_of[i] = KeyHash{}(key)&shard_mask_;
    }
    for (std::size_t i = 0; i < chunk; ++i) {
      if (done[i]) continue;
      Shard& shard = shards_[shard_of[i]];
      MutexLock lock(shard.mutex);
      for (std::size_t j = i; j < chunk; ++j) {
        if (done[j] || shard_of[j] != shard_of[i]) continue;
        done[j] = true;
        const Key key{epoch, ranges[base + j].lo(), ranges[base + j].hi()};
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
          // Benign double-compute race: same immutable snapshot, same
          // answer.
          it->second->answer = answers[base + j];
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
          continue;
        }
        if (static_cast<std::int64_t>(shard.lru.size()) >=
            per_shard_capacity_) {
          shard.index.erase(shard.lru.back().key);
          shard.lru.pop_back();
          ++evicted;
        }
        shard.lru.push_front(Entry{key, answers[base + j]});
        shard.index.emplace(key, shard.lru.begin());
        ++inserted;
      }
    }
  }
  insertions_.fetch_add(inserted, std::memory_order_relaxed);
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

std::int64_t AnswerCache::EvictOlderEpochs(std::uint64_t epoch) {
  if (capacity_ == 0) return 0;
  std::int64_t dropped = 0;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.epoch < epoch) {
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  epoch_evictions_.fetch_add(static_cast<std::uint64_t>(dropped),
                             std::memory_order_relaxed);
  return dropped;
}

void AnswerCache::Clear() {
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    MutexLock lock(shards_[s].mutex);
    shards_[s].lru.clear();
    shards_[s].index.clear();
  }
}

std::int64_t AnswerCache::size() const {
  std::int64_t total = 0;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    MutexLock lock(shards_[s].mutex);
    total += static_cast<std::int64_t>(shards_[s].lru.size());
  }
  return total;
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.epoch_evictions = epoch_evictions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dphist
