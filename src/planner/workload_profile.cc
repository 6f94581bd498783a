#include "planner/workload_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace dphist::planner {

std::size_t WorkloadProfile::OctaveOf(std::int64_t length) {
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(length)) - 1);
}

std::int64_t WorkloadProfile::OctaveMidpoint(std::size_t octave,
                                             std::int64_t domain_size) {
  const std::int64_t lo = std::int64_t{1} << octave;
  return std::min(domain_size, lo + (lo - 1) / 2);
}

std::size_t WorkloadProfile::BucketOf(std::int64_t length) {
  // Below 2^(kSubBucketBits + 1) a length is its own bucket; above, its
  // top kSubBucketBits + 1 bits pick the bucket within its octave.
  const std::size_t shift =
      std::max(OctaveOf(length), std::size_t{kSubBucketBits}) -
      kSubBucketBits;
  return shift * kSubBuckets + static_cast<std::size_t>(length >> shift) - 1;
}

WorkloadProfile::WorkloadProfile(std::int64_t domain_size)
    : domain_size_(domain_size) {
  DPHIST_CHECK_MSG(domain_size_ >= 1, "domain must be non-empty");
}

void WorkloadProfile::AddLength(std::int64_t length, double weight) {
  DPHIST_CHECK_MSG(length >= 1 && length <= domain_size_,
                   "length outside [1, domain_size]");
  DPHIST_CHECK_MSG(weight > 0.0, "weight must be positive");
  Bucket& bucket = buckets_[BucketOf(length)];
  bucket.weight += weight;
  bucket.length_sum += weight * static_cast<double>(length);
  total_weight_ += weight;
}

std::map<std::int64_t, double> WorkloadProfile::length_weights() const {
  std::map<std::int64_t, double> lengths;
  // No bucket above the domain's own holds a length.
  for (std::size_t b = 0; b <= BucketOf(domain_size_); ++b) {
    const Bucket& bucket = buckets_[b];
    if (bucket.weight == 0.0) continue;
    // Past 2^53 a length is not exact in a double, so a mean can round
    // beyond the domain (or int64), or onto a neighbour's; it is held to
    // the domain, and a shared mean sums its weights.
    const double mean = bucket.length_sum / bucket.weight;
    lengths[mean < static_cast<double>(domain_size_) ? std::llround(mean)
                                                     : domain_size_] +=
        bucket.weight;
  }
  return lengths;
}

WorkloadProfile WorkloadProfile::GeometricSweep(std::int64_t domain_size) {
  WorkloadProfile profile(domain_size);
  for (std::int64_t length = 1; length < domain_size; length *= 2) {
    profile.AddLength(length);
  }
  profile.AddLength(domain_size);
  return profile;
}

Result<WorkloadProfile> WorkloadProfile::Restore(
    std::int64_t domain_size, const std::map<std::int64_t, double>& lengths) {
  if (domain_size < 1) {
    return Status::InvalidArgument("domain must be non-empty");
  }
  WorkloadProfile profile(domain_size);
  for (const auto& [length, weight] : lengths) {
    if (length < 1 || length > domain_size) {
      return Status::InvalidArgument(
          "persisted profile length outside [1, domain_size]");
    }
    if (!std::isfinite(weight) || weight <= 0.0) {
      return Status::InvalidArgument(
          "persisted profile weight must be positive and finite");
    }
    profile.AddLength(length, weight);
  }
  bool finite = std::isfinite(profile.total_weight_);
  for (const Bucket& bucket : profile.buckets_) {
    finite = finite && std::isfinite(bucket.length_sum);
  }
  if (!finite) {
    return Status::InvalidArgument(
        "persisted profile weights must sum to a finite total");
  }
  return profile;
}

}  // namespace dphist::planner
