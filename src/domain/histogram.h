// Histogram: per-position counts over an ordered domain.
//
// A Histogram is the library's stand-in for the private database instance
// I: the vector of unit-length counts L(I) is a sufficient statistic for
// every query sequence the paper considers (L, H, S are all functions of
// it), so algorithms consume Histogram rather than raw tuples. Counts are
// stored as doubles so the same container carries true (integral) counts,
// noisy answers, and inferred estimates.

#ifndef DPHIST_DOMAIN_HISTOGRAM_H_
#define DPHIST_DOMAIN_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "domain/domain.h"
#include "domain/interval.h"

namespace dphist {

/// Counts over an ordered domain, with O(1) range sums after the first
/// range query (lazy prefix table, invalidated on mutation).
///
/// Thread safety: all const accessors are safe to call concurrently from
/// any number of threads, with no caller-side ceremony — including the
/// *first* Count()/Total() call, which materializes the prefix table
/// under an internal mutex with double-checked locking (as does the
/// first call after a mutation). Laziness is kept deliberately:
/// histograms on the publish hot path (per-shard slices inside
/// Snapshot::Build) are consumed through counts() and never pay for a
/// prefix pass. Mutating concurrently with reads is still undefined, as
/// for any container.
class Histogram {
 public:
  /// A histogram with the given counts; counts.size() defines the domain.
  explicit Histogram(std::vector<double> counts,
                     std::string attribute = "value");

  /// Builds from integer counts.
  static Histogram FromCounts(const std::vector<std::int64_t>& counts,
                              std::string attribute = "value");

  // The internal prefix mutex is not copyable/movable, so the special
  // members are spelled out; they copy/move the data and the cached
  // prefix state but give each instance its own mutex.
  Histogram(const Histogram& other);
  Histogram(Histogram&& other) noexcept;
  Histogram& operator=(const Histogram& other);
  Histogram& operator=(Histogram&& other) noexcept;

  /// The domain.
  const Domain& domain() const { return domain_; }

  /// Number of positions.
  std::int64_t size() const { return domain_.size(); }

  /// Count at a position (checked).
  double At(std::int64_t position) const;

  /// Sets the count at a position (checked).
  void Set(std::int64_t position, double count);

  /// Adds `delta` to the count at a position (checked).
  void Increment(std::int64_t position, double delta = 1.0);

  /// The counting query c([x, y]): sum of counts in the interval.
  /// This is the paper's `Select count(*) ... Where x <= R.A <= y`.
  double Count(const Interval& range) const;

  /// Total of all counts (== Count over the full domain).
  double Total() const;

  /// All counts in domain order.
  const std::vector<double>& counts() const { return counts_; }

  /// Counts in ascending order: the unattributed histogram S(I) (§3).
  std::vector<double> SortedCounts() const;

 private:
  void EnsurePrefix() const;
  void BuildPrefix() const DPHIST_REQUIRES(prefix_mutex_);

  Domain domain_;
  std::vector<double> counts_;
  // prefix_[i] = sum of counts[0..i). Written only under prefix_mutex_;
  // readers on the query path go through the prefix_valid_ release/
  // acquire publication instead of the mutex (see Count()).
  mutable std::vector<double> prefix_ DPHIST_GUARDED_BY(prefix_mutex_);
  mutable std::atomic<bool> prefix_valid_{false};
  mutable Mutex prefix_mutex_;
};

}  // namespace dphist

#endif  // DPHIST_DOMAIN_HISTOGRAM_H_
