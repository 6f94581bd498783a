// WorkloadProfile: what the traffic looks like, as a weighted histogram
// of query lengths in log-linear buckets.
//
// Hay et al.'s central empirical result (Sections 4 and 7) is that no
// single release strategy dominates: unit counts favor L~, long ranges
// favor the constrained hierarchy, and sharding shifts the crossover.
// Choosing well therefore requires knowing the workload. A
// WorkloadProfile is the minimal sufficient summary the cost model
// needs: how often each query *length* occurs. (Within a length the
// cost model averages over placements, so positions are not kept.)
//
// Lengths 1..15 each have a bucket, and each octave [2^b, 2^(b+1) - 1]
// above is split into 8 equal buckets, so a bucket spans at most 1/8 of
// its smallest length. A bucket holds its weight and length sum and is
// costed at its mean length, rounded: a profile costs one length per
// non-empty bucket however many distinct lengths it was fed. (Whole
// octaves are too coarse: one costs lengths 24, 25 and 31 as 27, and so
// picks a plan with 24% more variance for six ranges at n = 48.)
//
// Profiles come from four places:
//   - the ranges of a workload file (`serve --queries`, `plan --queries`),
//   - observed QueryService traffic: lock-free per-octave counters, each
//     octave added at its OctaveMidpoint, its bucket's only length and
//     so its mean. So traffic has one length per octave where a file has
//     up to eight: octaves keep the answering path at one relaxed add
//     per touched octave per batch, and ROADMAP item 2 has what moving
//     traffic to the profile's buckets waits on,
//   - a state directory's persisted profile (Restore), which replans
//     use after a restart until fresh traffic arrives,
//   - the neutral prior (GeometricSweep) when none of those exists.

#ifndef DPHIST_PLANNER_WORKLOAD_PROFILE_H_
#define DPHIST_PLANNER_WORKLOAD_PROFILE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>

#include "common/status.h"

namespace dphist::planner {

/// Weighted histogram of query lengths over a fixed domain, in
/// log-linear length buckets.
class WorkloadProfile {
 public:
  /// Octave b holds lengths [2^b, 2^(b+1) - 1]; every int64 length >= 1
  /// has one.
  static constexpr std::size_t kOctaves = 63;
  /// Each octave from 2^(kSubBucketBits + 1) up is split into
  /// 2^kSubBucketBits equal buckets; shorter lengths are exact.
  static constexpr int kSubBucketBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1}
                                             << kSubBucketBits;
  static constexpr std::size_t kLengthBuckets =
      (kOctaves - kSubBucketBits + 1) * kSubBuckets - 1;

  /// The octave of a length >= 1: floor(log2(length)).
  static std::size_t OctaveOf(std::int64_t length);
  /// The length an octave's traffic is costed at: the octave's
  /// midpoint, held to the domain.
  static std::int64_t OctaveMidpoint(std::size_t octave,
                                     std::int64_t domain_size);

  explicit WorkloadProfile(std::int64_t domain_size);

  /// Records `weight` queries of the given length in its bucket.
  /// Checked: 1 <= length <= domain_size, weight > 0.
  void AddLength(std::int64_t length, double weight = 1.0);

  /// A neutral prior when nothing has been observed: one unit of weight
  /// at every power-of-two length up to the domain (1, 2, 4, ..., n).
  /// A domain less than 1/8 above a power of two shares that power's
  /// bucket.
  static WorkloadProfile GeometricSweep(std::int64_t domain_size);

  /// Rebuilds a profile from its persisted (length, weight) pairs, each
  /// added to its bucket; the total weight is recomputed as the plain
  /// sum. Rejects lengths outside [1, domain_size], weights that are not
  /// positive and finite, and sums that overflow.
  static Result<WorkloadProfile> Restore(
      std::int64_t domain_size, const std::map<std::int64_t, double>& lengths);

  std::int64_t domain_size() const { return domain_size_; }
  double total_weight() const { return total_weight_; }
  bool empty() const { return total_weight_ == 0.0; }

  /// Each non-empty bucket's (mean length rounded to an integer,
  /// weight), ascending by length.
  std::map<std::int64_t, double> length_weights() const;

 private:
  struct Bucket {
    double weight = 0.0;
    double length_sum = 0.0;  // sum of weight x length
  };

  static std::size_t BucketOf(std::int64_t length);

  std::int64_t domain_size_;
  double total_weight_ = 0.0;
  std::array<Bucket, kLengthBuckets> buckets_{};
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_WORKLOAD_PROFILE_H_
