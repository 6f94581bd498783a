#include "planner/workload_profile.h"

#include <algorithm>

#include "common/check.h"

namespace dphist::planner {

WorkloadProfile::WorkloadProfile(std::int64_t domain_size)
    : domain_size_(domain_size),
      heat_bin_width_((domain_size + static_cast<std::int64_t>(kHeatBins) -
                       1) /
                      static_cast<std::int64_t>(kHeatBins)) {
  DPHIST_CHECK_MSG(domain_size_ >= 1, "domain must be non-empty");
}

void WorkloadProfile::AddQuery(const Interval& query) {
  AddQueryWeighted(query, 1.0);
}

void WorkloadProfile::AddQueryWeighted(const Interval& query,
                                       double weight) {
  DPHIST_CHECK_MSG(query.lo() >= 0 && query.hi() < domain_size_,
                   "query outside the profile's domain");
  AddLength(query.Length(), weight);
  const std::int64_t midpoint = query.lo() + (query.hi() - query.lo()) / 2;
  heat_[HeatBin(midpoint)] += weight;
  heat_weight_ += weight;
}

std::size_t WorkloadProfile::HeatBin(std::int64_t position) const {
  return static_cast<std::size_t>(position / heat_bin_width_);
}

double WorkloadProfile::PositionHeat(std::int64_t position) const {
  DPHIST_CHECK_MSG(position >= 0 && position < domain_size_,
                   "position outside the profile's domain");
  if (heat_weight_ <= 0.0) return 0.0;
  return heat_[HeatBin(position)] / heat_weight_;
}

void WorkloadProfile::AddLength(std::int64_t length, double weight) {
  DPHIST_CHECK_MSG(length >= 1 && length <= domain_size_,
                   "length outside [1, domain_size]");
  DPHIST_CHECK_MSG(weight > 0.0, "weight must be positive");
  lengths_[length] += weight;
  total_weight_ += weight;
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
    std::int64_t domain_size, std::map<std::int64_t, double> lengths,
    const std::array<double, kHeatBins>& heat) {
  if (domain_size < 1) {
    return Status::InvalidArgument("domain must be non-empty");
  }
  WorkloadProfile profile(domain_size);
  for (const auto& [length, weight] : lengths) {
    if (length < 1 || length > domain_size) {
      return Status::InvalidArgument(
          "persisted profile length outside [1, domain_size]");
    }
    if (weight <= 0.0) {
      return Status::InvalidArgument(
          "persisted profile weight must be positive");
    }
    profile.total_weight_ += weight;
  }
  profile.lengths_ = std::move(lengths);
  for (double bin : heat) {
    if (bin < 0.0) {
      return Status::InvalidArgument("persisted heat bin must be >= 0");
    }
    profile.heat_weight_ += bin;
  }
  profile.heat_ = heat;
  return profile;
}

namespace {

/// splitmix64 finalizer: the deterministic replacement stream behind
/// QueryReservoir (no RNG object to seed or thread through).
std::uint64_t MixCount(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

QueryReservoir::QueryReservoir(std::size_t capacity) : capacity_(capacity) {
  sample_.reserve(capacity_);
}

void QueryReservoir::Observe(const Interval& query) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(query);  // within reserved capacity: no allocation
    return;
  }
  if (capacity_ == 0) return;
  // Algorithm R: admit the t-th query with probability capacity/t by
  // drawing a pseudo-uniform slot in [0, t) and keeping it only when the
  // slot lands inside the reservoir.
  const std::uint64_t slot = MixCount(seen_) % seen_;
  if (slot < capacity_) {
    sample_[static_cast<std::size_t>(slot)] = query;
  }
}

void QueryReservoir::AddTo(WorkloadProfile* profile) const {
  if (sample_.empty()) return;
  const double weight = static_cast<double>(seen_) /
                        static_cast<double>(sample_.size());
  const std::int64_t max_position = profile->domain_size() - 1;
  for (const Interval& query : sample_) {
    // Clamp to the profile's domain (a reservoir can outlive a domain
    // change in tests); in-domain queries pass through untouched, so the
    // profile keeps their exact lengths AND placements.
    const Interval clipped(std::min(query.lo(), max_position),
                           std::min(query.hi(), max_position));
    profile->AddQueryWeighted(clipped, weight);
  }
}

}  // namespace dphist::planner
