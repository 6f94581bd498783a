// Universal-histogram estimators (Section 4, Figure 6).
//
// Three strategies answer arbitrary range counts under epsilon-DP:
//
//   LTilde : noisy unit counts, ranges answered by summation. Accurate for
//            tiny ranges, error grows linearly with range length.
//   HTilde : noisy hierarchical counts, ranges answered by summing the
//            minimal subtree decomposition. Poly-log error everywhere.
//   HBar   : HTilde's draw post-processed with Theorem 3's constrained
//            inference (plus the Section 4.2 non-negativity pruning);
//            consistent, so ranges are exact sums of inferred leaves.
//
// Each estimator draws its noise once at construction — one construction
// equals one interaction with the private data — and then answers any
// number of ranges as pure post-processing. Following Section 5.2, all
// estimators round to non-negative integers (configurable).

#ifndef DPHIST_ESTIMATORS_UNIVERSAL_H_
#define DPHIST_ESTIMATORS_UNIVERSAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"
#include "tree/tree_layout.h"

namespace dphist {

/// Shared knobs for the universal-histogram estimators.
struct UniversalOptions {
  /// Privacy parameter; the whole construction is epsilon-DP.
  double epsilon = 1.0;
  /// Tree branching factor for HTilde/HBar.
  std::int64_t branching = 2;
  /// Enforce integrality and non-negativity (Section 5.2 protocol). For
  /// L~ and H~ the *final range answer* is rounded to the nearest
  /// non-negative integer; rounding every unit count instead would
  /// accumulate a positive clipping bias linear in the range length over
  /// sparse regions (and does not match the paper's reported L~ error,
  /// which follows the pure-noise 2R/eps^2 line). For H-bar, rounding is
  /// applied to the inferred node estimates as part of the Section 4.2
  /// post-processing, as the paper specifies.
  bool round_to_nonnegative_integers = true;
  /// Zero out non-positive subtrees after inference (Section 4.2; HBar
  /// only).
  bool prune_nonpositive_subtrees = true;
};

/// The L~ strategy: unit counts + Laplace(1/epsilon) noise.
class LTildeEstimator : public RangeCountEstimator {
 public:
  LTildeEstimator(const Histogram& data, const UniversalOptions& options,
                  Rng* rng);

  /// Validating construction for serving paths: invalid options or a
  /// missing RNG become a Status instead of aborting the process. The
  /// plain constructor keeps its CHECKs for the experiment binaries.
  static Result<std::unique_ptr<LTildeEstimator>> Create(
      const Histogram& data, const UniversalOptions& options, Rng* rng);

  /// Rebuilds the estimator from a persisted leaf vector (the
  /// SerializableState of a previous construction): the prefix table is
  /// recomputed by the same deterministic fold, so every answer is
  /// bit-identical to the original's. Fails on an empty vector.
  static Result<std::unique_ptr<LTildeEstimator>> Restore(
      const UniversalOptions& options, std::vector<double> leaves);

  double RangeCount(const Interval& range) const override;
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const override;
  std::string Name() const override { return "L~"; }

  /// L~ is always prefix-served; the final answer is rounded exactly
  /// when Section 5.2 rounding is on.
  PrefixAnswerView PrefixView() const override {
    return {prefix_.data(), static_cast<std::int64_t>(leaves_.size()),
            round_answers_};
  }

  /// Raw noisy per-position answers (rounding happens per range answer).
  const std::vector<double>& leaf_estimates() const { return leaves_; }

  /// The leaves: everything Restore needs (see range_engine.h).
  const std::vector<double>* SerializableState() const override {
    return &leaves_;
  }

 private:
  LTildeEstimator(const UniversalOptions& options,
                  std::vector<double> leaves);

  bool round_answers_;
  std::vector<double> leaves_;
  std::vector<double> prefix_;
};

/// The H~ strategy: hierarchical counts + Laplace(height/epsilon) noise,
/// ranges answered by the minimal subtree decomposition.
class HTildeEstimator : public RangeCountEstimator {
 public:
  HTildeEstimator(const Histogram& data, const UniversalOptions& options,
                  Rng* rng);

  /// Validating construction for serving paths (see LTilde::Create);
  /// additionally rejects branching < 2.
  static Result<std::unique_ptr<HTildeEstimator>> Create(
      const Histogram& data, const UniversalOptions& options, Rng* rng);

  /// Builds from an existing noisy node vector (so experiments can feed
  /// H~ and H-bar the *same* draw).
  HTildeEstimator(std::int64_t domain_size, const UniversalOptions& options,
                  std::vector<double> noisy_nodes);

  /// Validating form of the noisy-node constructor for the storage
  /// layer: a persisted node vector that does not match the tree of
  /// (domain_size, branching) is a Status, not an abort.
  static Result<std::unique_ptr<HTildeEstimator>> Restore(
      std::int64_t domain_size, const UniversalOptions& options,
      std::vector<double> noisy_nodes);

  double RangeCount(const Interval& range) const override;
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const override;
  std::string Name() const override { return "H~"; }

  /// Tree geometry (shared with HBar when comparing like-for-like).
  const TreeLayout& tree() const { return tree_; }

  /// Raw noisy per-node answers (rounding happens per range answer).
  const std::vector<double>& node_answers() const { return nodes_; }

  /// The raw noisy nodes: everything Restore needs.
  const std::vector<double>* SerializableState() const override {
    return &nodes_;
  }

 private:
  /// Non-virtual core shared by the scalar and batched entry points so
  /// the batched loop pays no per-query virtual dispatch.
  double RangeCountImpl(const Interval& range) const;

  bool round_answers_;
  std::int64_t domain_size_;
  TreeLayout tree_;
  std::vector<double> nodes_;
};

/// The H-bar strategy: H~'s draw + Theorem 3 inference (+ pruning).
///
/// Range queries are answered from the minimal subtree decomposition of
/// the post-processed node estimates. When pruning and rounding are off
/// this equals summing inferred leaves (the tree is exactly consistent);
/// with them on, decomposition keeps the non-negativity clipping at the
/// subtree level — clipping at the leaf level instead would add a
/// positive bias proportional to the range length across sparse regions.
///
/// Performance: construction detects whether the final node estimates are
/// exactly consistent (they are whenever pruning and rounding leave the
/// inference output untouched). If so, every decomposition answer equals
/// a difference of two leaf prefix sums, so RangeCount runs in O(1);
/// otherwise it falls back to the allocation-free O(k log_k n)
/// decomposition walk. Both paths allocate nothing per query.
class HBarEstimator : public RangeCountEstimator {
 public:
  HBarEstimator(const Histogram& data, const UniversalOptions& options,
                Rng* rng);

  /// Validating construction for serving paths (see LTilde::Create);
  /// additionally rejects branching < 2.
  static Result<std::unique_ptr<HBarEstimator>> Create(
      const Histogram& data, const UniversalOptions& options, Rng* rng);

  /// Builds from an existing noisy node vector (so experiments can feed
  /// H~ and H-bar the *same* draw). `noisy_nodes` must match the tree of
  /// `HierarchicalQuery(domain_size, options.branching)`.
  HBarEstimator(std::int64_t domain_size, const UniversalOptions& options,
                const std::vector<double>& noisy_nodes);

  /// Rebuilds the estimator from persisted *final* node estimates (the
  /// output of inference + pruning + rounding, i.e. node_estimates()):
  /// the expensive inference is skipped, while the leaf extraction,
  /// prefix table, and consistency detection re-run the same
  /// deterministic code the original construction did — so answers and
  /// the fast-path choice are bit-identical. Fails when the vector does
  /// not match the tree of (domain_size, branching).
  static Result<std::unique_ptr<HBarEstimator>> Restore(
      std::int64_t domain_size, const UniversalOptions& options,
      std::vector<double> final_nodes);

  double RangeCount(const Interval& range) const override;
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const override;
  std::string Name() const override { return "H-bar"; }

  /// The answer computed by walking the minimal subtree decomposition —
  /// the reference path the O(1) prefix-sum fast path must agree with.
  /// Exposed for equivalence tests and benchmarks.
  double RangeCountViaDecomposition(const Interval& range) const;

  /// True when construction proved the node estimates exactly consistent,
  /// enabling the O(1) prefix-sum answer path.
  bool uses_prefix_fast_path() const { return consistent_; }

  /// Only the consistent fast path is a raw prefix difference; the
  /// final answer is never rounded (rounding was applied to the node
  /// estimates during inference). Inconsistent trees must keep the
  /// decomposition walk, so they expose no view.
  PrefixAnswerView PrefixView() const override {
    if (!consistent_) return {};
    return {prefix_.data(), domain_size_, /*round_final_answer=*/false};
  }

  const TreeLayout& tree() const { return tree_; }

  /// Final per-node estimates (inference, then pruning and rounding as
  /// configured). Exactly consistent (parent = sum of children) when
  /// pruning and rounding are disabled.
  const std::vector<double>& node_estimates() const { return nodes_; }

  /// Final per-position estimates: the leaf level of node_estimates().
  const std::vector<double>& leaf_estimates() const { return leaves_; }

  /// The final node estimates: everything Restore needs.
  const std::vector<double>* SerializableState() const override {
    return &nodes_;
  }

 private:
  /// Restore path: adopts final nodes without re-running inference.
  struct RestoreTag {};
  HBarEstimator(RestoreTag, std::int64_t domain_size,
                std::vector<double> final_nodes, std::int64_t branching);

  /// Runs inference and the configured post-processing on the noisy
  /// counts in nodes_, then computes the leaf state.
  void FinishConstruction(const UniversalOptions& options);

  /// The deterministic tail of construction shared with Restore:
  /// computes leaves_, prefix_, and consistent_ from nodes_.
  void ComputeLeafState();

  /// Non-virtual decomposition walk shared by the fallback paths and
  /// RangeCountViaDecomposition.
  double DecompositionAnswer(const Interval& range) const;

  std::int64_t domain_size_;
  TreeLayout tree_;
  std::vector<double> nodes_;
  std::vector<double> leaves_;
  /// prefix_[i] = sum of leaves_[0..i); drives the O(1) answer path.
  std::vector<double> prefix_;
  bool consistent_ = false;
};

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_UNIVERSAL_H_
