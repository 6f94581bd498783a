// Closed-form error oracle for published snapshot configurations.
//
// The matrix-mechanism view (src/paper/analysis/strategy_matrix.h) gives the
// *exact* expected squared error of every snapshot configuration the
// serving layer can publish, as long as the estimators stay linear
// (rounding and pruning off):
//
//   L~       Var(q) = 2 |q| / eps^2                       (identity OLS)
//   H~       Var(q) = |decomposition(q)| * 2 (ell/eps)^2  (subtree sum)
//   H-bar    Var(q) = OLS variance under the H strategy   (Theorem 3 ==
//                                                          least squares)
//   wavelet  Var(q) = OLS variance under the weighted Haar strategy
//
// Sharded snapshots compose exactly: shards draw independent noise, so a
// spanning range's variance is the sum of the clipped per-shard
// variances. VarianceOracle evaluates all of that. It serves two
// masters: the statistical conformance harness (tests/service/), which
// checks that empirical serving error lands on this closed form, and the
// cost-based planner (src/planner/planner.h), which uses the same math
// to *choose* a configuration before publishing — the paper's Section 4
// variance analysis turned into a query optimizer.
//
// The H-bar and wavelet OLS forms are evaluated by the Gram recurrences
// of planner/recurrence_oracle.h: O(branching * log width) per query and
// exact at any width. The dense Cholesky of paper/analysis/strategy_matrix.h
// computes the same quantity in O(width^3) and is the tests' reference.

#ifndef DPHIST_PLANNER_VARIANCE_ORACLE_H_
#define DPHIST_PLANNER_VARIANCE_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/status.h"
#include "domain/interval.h"
#include "planner/recurrence_oracle.h"
#include "service/snapshot.h"

namespace dphist::planner {

/// Exact expected squared error of a Snapshot's range answers.
///
/// Only valid for the linear protocol: options.round_to_nonnegative_
/// integers and options.prune_nonpositive_subtrees must be false
/// (rounding/pruning are nonlinear post-processing with no closed form),
/// and options.strategy must be a concrete kind (not kAuto). Create
/// reports violations as a Status.
class VarianceOracle {
 public:
  /// Validating factory. Fails (never aborts) on kAuto, the nonlinear
  /// protocol, or anything CheckReleaseOptions (service/snapshot.h)
  /// refuses.
  static Result<VarianceOracle> Create(const SnapshotOptions& options,
                                       std::int64_t domain_size);

  /// Exact Var[answer(q) - truth(q)] for a snapshot published with these
  /// options over this domain. `q` must lie within [0, domain_size).
  double RangeVariance(const Interval& range) const;

  std::int64_t domain_size() const { return domain_size_; }
  std::int64_t shard_width() const { return shard_width_; }

 private:
  VarianceOracle(const SnapshotOptions& options, std::int64_t domain_size,
                 std::int64_t shard_width)
      : options_(options),
        domain_size_(domain_size),
        shard_width_(shard_width) {}

  /// Variance of one shard's answer to a shard-local interval, for a
  /// shard of `width` positions.
  double ShardVariance(std::int64_t width, const Interval& local) const;

  /// Lazily built per-width recurrence oracle.
  const RecurrenceOracle& RecurrenceFor(std::int64_t width) const;

  SnapshotOptions options_;
  std::int64_t domain_size_;
  std::int64_t shard_width_;
  /// Shards come in at most two widths (the last may be narrower).
  mutable std::map<std::int64_t, std::unique_ptr<RecurrenceOracle>>
      recurrences_;
};

}  // namespace dphist::planner

#endif  // DPHIST_PLANNER_VARIANCE_ORACLE_H_
