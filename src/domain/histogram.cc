#include "domain/histogram.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace dphist {

Histogram::Histogram(std::vector<double> counts, std::string attribute)
    : domain_(static_cast<std::int64_t>(counts.size()), std::move(attribute)),
      counts_(std::move(counts)) {
  DPHIST_CHECK(!counts_.empty());
}

Histogram Histogram::FromCounts(const std::vector<std::int64_t>& counts,
                                std::string attribute) {
  std::vector<double> values(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    values[i] = static_cast<double>(counts[i]);
  }
  return Histogram(std::move(values), std::move(attribute));
}

Histogram::Histogram(const Histogram& other) : domain_(other.domain_) {
  // Copying from a const& is a const access, so it must be safe against
  // a concurrent EnsurePrefix rebuild in `other`: take its mutex while
  // reading the prefix state.
  MutexLock lock(other.prefix_mutex_);
  counts_ = other.counts_;
  prefix_ = other.prefix_;
  prefix_valid_.store(other.prefix_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
}

Histogram::Histogram(Histogram&& other) noexcept
    : domain_(std::move(other.domain_)),
      counts_(std::move(other.counts_)),
      prefix_(std::move(other.prefix_)),
      prefix_valid_(other.prefix_valid_.load(std::memory_order_acquire)) {}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  domain_ = other.domain_;
  // Mutating *this concurrently with any other access is undefined (as
  // for any container), so this thread is the sole accessor of our own
  // prefix state — assert our capability rather than locking, which
  // keeps the lock order single-mutex (no A=B vs B=A deadlock).
  prefix_mutex_.AssertHeld();
  {
    MutexLock lock(other.prefix_mutex_);
    counts_ = other.counts_;
    prefix_ = other.prefix_;
    prefix_valid_.store(other.prefix_valid_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  return *this;
}

Histogram& Histogram::operator=(Histogram&& other) noexcept {
  if (this == &other) return *this;
  domain_ = std::move(other.domain_);
  counts_ = std::move(other.counts_);
  // Same single-accessor argument as copy-assignment, on both sides: a
  // moved-from object must not be touched concurrently either.
  prefix_mutex_.AssertHeld();
  other.prefix_mutex_.AssertHeld();
  prefix_ = std::move(other.prefix_);
  prefix_valid_.store(other.prefix_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
  return *this;
}

double Histogram::At(std::int64_t position) const {
  DPHIST_CHECK(position >= 0 && position < size());
  return counts_[static_cast<std::size_t>(position)];
}

void Histogram::Set(std::int64_t position, double count) {
  DPHIST_CHECK(position >= 0 && position < size());
  counts_[static_cast<std::size_t>(position)] = count;
  prefix_valid_.store(false, std::memory_order_release);
}

void Histogram::Increment(std::int64_t position, double delta) {
  DPHIST_CHECK(position >= 0 && position < size());
  counts_[static_cast<std::size_t>(position)] += delta;
  prefix_valid_.store(false, std::memory_order_release);
}

void Histogram::BuildPrefix() const {
  prefix_.assign(counts_.size() + 1, 0.0);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + counts_[i];
  }
  prefix_valid_.store(true, std::memory_order_release);
}

void Histogram::EnsurePrefix() const {
  if (prefix_valid_.load(std::memory_order_acquire)) return;
  // Only reachable after a mutation; double-checked so concurrent first
  // reads after a (single-threaded) mutation phase rebuild exactly once.
  MutexLock lock(prefix_mutex_);
  if (prefix_valid_.load(std::memory_order_relaxed)) return;
  BuildPrefix();
}

double Histogram::Count(const Interval& range) const {
  DPHIST_CHECK_MSG(domain_.ContainsInterval(range),
                   "range query outside the domain");
  EnsurePrefix();
  // Documented lock-free read: EnsurePrefix returned only after
  // observing prefix_valid_ == true with acquire order, which pairs
  // with BuildPrefix's release store *after* filling prefix_ — so the
  // table this thread sees is complete, and it stays immutable until a
  // mutation (undefined to run concurrently with reads, per the class
  // contract) clears the flag. Taking prefix_mutex_ here would
  // serialize every reader on the query hot path for no added safety.
  prefix_mutex_.AssertHeld();
  return prefix_[static_cast<std::size_t>(range.hi()) + 1] -
         prefix_[static_cast<std::size_t>(range.lo())];
}

double Histogram::Total() const { return Count(domain_.FullRange()); }

std::vector<double> Histogram::SortedCounts() const {
  std::vector<double> sorted = counts_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace dphist
