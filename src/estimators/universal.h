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
//
// Each strategy's draw is one free function returning the release
// state: L~ and wavelet (wavelet.h) leaves, H~ noisy nodes, H-bar final
// nodes. The estimators and Snapshot::Build both call it, so a served
// release and the paper's estimator share every noise draw and every
// post-processing step; the estimators here are the paper's objects and
// the tests' oracles, and no release holds one. The draws CHECK their
// inputs (positive epsilon, an RNG, a non-empty domain, branching >= 2
// for the trees); the serving layer reaches them only through
// Snapshot::Build, which refuses bad release options as a Status first.

#ifndef DPHIST_ESTIMATORS_UNIVERSAL_H_
#define DPHIST_ESTIMATORS_UNIVERSAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
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

/// L~'s release state: one Laplace(1/epsilon) noisy count per position.
std::vector<double> DrawLTildeLeaves(const Histogram& data, double epsilon,
                                     Rng* rng);

/// H~'s release state: every tree node's count plus Laplace(height /
/// epsilon) noise, BFS order over TreeLayout(data.size(), branching).
std::vector<double> DrawHTildeNodes(const Histogram& data,
                                    const UniversalOptions& options,
                                    Rng* rng);

/// H-bar's release state: DrawHTildeNodes, then Theorem 3's inference
/// and the configured Section 4.2 pruning and Section 5.2 rounding, all
/// in the one node buffer.
std::vector<double> DrawHBarNodes(const Histogram& data,
                                  const UniversalOptions& options, Rng* rng);

/// The leaf level of a BFS node vector over `tree`: the first
/// tree.requested_leaf_count() entries are the domain's leaves.
inline const double* LeafLevel(const TreeLayout& tree,
                               const std::vector<double>& nodes) {
  return nodes.data() + tree.LevelStart(tree.height() - 1);
}

/// The decomposition walk: the sum of `nodes` over the minimal subtree
/// decomposition of `range`, added in increasing interval order. `range`
/// must lie in [0, tree.requested_leaf_count()). Allocates nothing.
double DecompositionSum(const TreeLayout& tree,
                        const std::vector<double>& nodes,
                        const Interval& range);

/// The consistency check: true when every node wholly inside the
/// (unpadded) domain equals the sum of its leaves, within 1e-9 times
/// max(1, largest |node|), so that a difference of two leaf prefix sums
/// (FoldLeafPrefixSums over LeafLevel) answers every in-domain range as
/// the walk does. Inference makes the tree consistent; pruning and
/// rounding can break it. Streams one left-to-right fold of the leaves,
/// read in place; allocates one boundary sum per level.
bool IsPrefixConsistent(const TreeLayout& tree,
                        const std::vector<double>& nodes);

/// The L~ strategy: unit counts + Laplace(1/epsilon) noise.
class LTildeEstimator : public RangeCountEstimator {
 public:
  LTildeEstimator(const Histogram& data, const UniversalOptions& options,
                  Rng* rng);

  double RangeCount(const Interval& range) const override;
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const override;
  std::string Name() const override { return "L~"; }

  /// Raw noisy per-position answers (rounding happens per range answer).
  const std::vector<double>& leaf_estimates() const { return leaves_; }

 private:
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

  /// Builds from an existing noisy node vector (so experiments can feed
  /// H~ and H-bar the *same* draw).
  HTildeEstimator(std::int64_t domain_size, const UniversalOptions& options,
                  std::vector<double> noisy_nodes);

  double RangeCount(const Interval& range) const override;
  void RangeCountsInto(const Interval* ranges, std::size_t count,
                       double* out) const override;
  std::string Name() const override { return "H~"; }

  /// Tree geometry (shared with HBar when comparing like-for-like).
  const TreeLayout& tree() const { return tree_; }

  /// Raw noisy per-node answers (rounding happens per range answer).
  const std::vector<double>& node_answers() const { return nodes_; }

 private:
  bool round_answers_;
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
/// Performance: construction runs IsPrefixConsistent. When it holds,
/// every decomposition answer equals a difference of two leaf prefix
/// sums, so RangeCount runs in O(1) off a prefix table built for that
/// case alone; otherwise it falls back to the allocation-free
/// O(k log_k n) DecompositionSum. Both paths allocate nothing per query.
class HBarEstimator : public RangeCountEstimator {
 public:
  HBarEstimator(const Histogram& data, const UniversalOptions& options,
                Rng* rng);

  /// Builds from an existing noisy node vector (so experiments can feed
  /// H~ and H-bar the *same* draw). `noisy_nodes` must match the tree of
  /// `HierarchicalQuery(domain_size, options.branching)`.
  HBarEstimator(std::int64_t domain_size, const UniversalOptions& options,
                const std::vector<double>& noisy_nodes);

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

  const TreeLayout& tree() const { return tree_; }

  /// Final per-node estimates (inference, then pruning and rounding as
  /// configured). Exactly consistent (parent = sum of children) when
  /// pruning and rounding are disabled.
  const std::vector<double>& node_estimates() const { return nodes_; }

  /// Final per-position estimates: the leaf level of node_estimates().
  const std::vector<double>& leaf_estimates() const { return leaves_; }

 private:
  /// Copies the leaf level, runs the consistency check, and builds the
  /// prefix table when it holds.
  void ComputeLeafState();

  TreeLayout tree_;
  std::vector<double> nodes_;
  std::vector<double> leaves_;
  /// prefix_[i] = sum of leaves_[0..i); drives the O(1) answer path.
  /// Empty unless consistent_.
  std::vector<double> prefix_;
  bool consistent_ = false;
};

}  // namespace dphist

#endif  // DPHIST_ESTIMATORS_UNIVERSAL_H_
