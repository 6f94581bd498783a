// WorkloadProfile: what the traffic looks like, as a weighted histogram
// of query lengths.
//
// Hay et al.'s central empirical result (Sections 4 and 7) is that no
// single release strategy dominates: unit counts favor L~, long ranges
// favor the constrained hierarchy, and sharding shifts the crossover.
// Choosing well therefore requires knowing the workload. A
// WorkloadProfile is the minimal sufficient summary the cost model
// needs: how often each query *length* occurs. (Within a length the
// cost model averages over placements, so positions need not be kept.)
//
// Profiles come from four places:
//   - the ranges of a workload file (AddQuery over what the session
//     parser read for `serve --queries` and `plan --queries`), the only
//     source of position heat,
//   - observed QueryService traffic (log2-bucketed, lock-free counters:
//     one representative length per bucket, no positions),
//   - a state directory's persisted profile (Restore), which replans
//     use after a restart until fresh traffic arrives,
//   - the neutral prior (GeometricSweep) when none of those exists.

#ifndef DPHIST_PLANNER_WORKLOAD_PROFILE_H_
#define DPHIST_PLANNER_WORKLOAD_PROFILE_H_

#include <array>
#include <cstdint>
#include <map>

#include "common/status.h"
#include "domain/interval.h"

namespace dphist::planner {

/// Weighted histogram of query lengths over a fixed domain, plus a
/// coarse per-position "heat" histogram of where placed queries landed.
class WorkloadProfile {
 public:
  /// Bins of the position-heat histogram: each placed query credits the
  /// bin holding its midpoint. Coarse on purpose — the cost model only
  /// needs to know which placement-grid points traffic actually visits,
  /// not exact positions (which would also be a sharper disclosure of
  /// the query stream than a replan decision needs).
  static constexpr std::size_t kHeatBins = 64;

  explicit WorkloadProfile(std::int64_t domain_size);

  /// Records one placed query (weight 1), including its midpoint in the
  /// position heat.
  void AddQuery(const Interval& query);

  /// Records `weight` queries of the given length with *unknown*
  /// placement (contributes no heat). Checked:
  /// 1 <= length <= domain_size, weight > 0.
  void AddLength(std::int64_t length, double weight = 1.0);

  /// A neutral prior when nothing has been observed: one unit of weight
  /// at every power-of-two length up to the domain (1, 2, 4, ..., n).
  static WorkloadProfile GeometricSweep(std::int64_t domain_size);

  /// Rebuilds a profile from its persisted summary (the length_weights
  /// map plus the raw position-heat bins); total and heat weights are
  /// recomputed as the plain sums of what is restored. Rejects lengths
  /// outside [1, domain_size], weights that are not positive and finite,
  /// heat that is negative or not finite, and sums that overflow.
  static Result<WorkloadProfile> Restore(
      std::int64_t domain_size, std::map<std::int64_t, double> lengths,
      const std::array<double, kHeatBins>& heat);

  std::int64_t domain_size() const { return domain_size_; }
  double total_weight() const { return total_weight_; }
  bool empty() const { return lengths_.empty(); }

  /// Weight per distinct length, ascending by length.
  const std::map<std::int64_t, double>& length_weights() const {
    return lengths_;
  }

  /// True when at least one query carried placement information (via
  /// AddQuery). False for pure-length profiles (AddLength,
  /// GeometricSweep, the service's bucketed counters), where the cost
  /// model falls back to uniform placement weighting.
  bool has_position_heat() const { return heat_weight_ > 0.0; }

  /// Fraction of the placed-query weight whose midpoint landed in the
  /// heat bin containing `position` (in [0, 1]; 0 when no query carried
  /// placement information). Requires 0 <= position < domain_size.
  double PositionHeat(std::int64_t position) const;

  /// The raw per-bin placed-query weights (kHeatBins entries; trailing
  /// bins are unused when domain_size < kHeatBins).
  const std::array<double, kHeatBins>& position_heat() const {
    return heat_;
  }

 private:
  std::size_t HeatBin(std::int64_t position) const;

  std::int64_t domain_size_;
  /// Domain positions per heat bin, ceil(domain_size / kHeatBins).
  std::int64_t heat_bin_width_;
  double total_weight_ = 0.0;
  /// Total weight added with a known placement (heat_ sums to this).
  double heat_weight_ = 0.0;
  std::map<std::int64_t, double> lengths_;
  std::array<double, kHeatBins> heat_{};
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_WORKLOAD_PROFILE_H_
