#include "planner/workload_profile.h"

#include <cmath>
#include <utility>

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
  DPHIST_CHECK_MSG(query.lo() >= 0 && query.hi() < domain_size_,
                   "query outside the profile's domain");
  AddLength(query.Length());
  const std::int64_t midpoint = query.lo() + (query.hi() - query.lo()) / 2;
  heat_[HeatBin(midpoint)] += 1.0;
  heat_weight_ += 1.0;
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
    if (!std::isfinite(weight) || weight <= 0.0) {
      return Status::InvalidArgument(
          "persisted profile weight must be positive and finite");
    }
    profile.total_weight_ += weight;
  }
  profile.lengths_ = std::move(lengths);
  for (double bin : heat) {
    if (!std::isfinite(bin) || bin < 0.0) {
      return Status::InvalidArgument(
          "persisted heat bin must be finite and >= 0");
    }
    profile.heat_weight_ += bin;
  }
  if (!std::isfinite(profile.total_weight_) ||
      !std::isfinite(profile.heat_weight_)) {
    return Status::InvalidArgument(
        "persisted profile weights must sum to a finite total");
  }
  profile.heat_ = heat;
  return profile;
}

}  // namespace dphist::planner
