#include "planner/recurrence_oracle.h"

#include <algorithm>

#include "common/check.h"
#include "estimators/wavelet.h"
#include "query/hierarchical_query.h"
#include "tree/tree_layout.h"

namespace dphist::planner {
namespace {

std::int64_t NextPowerOfTwo(std::int64_t n) {
  std::int64_t p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

bool RecurrenceOracle::Supports(StrategyKind kind) {
  return kind == StrategyKind::kHBar || kind == StrategyKind::kWavelet;
}

Result<RecurrenceOracle> RecurrenceOracle::Create(StrategyKind kind,
                                                  std::int64_t width,
                                                  std::int64_t branching,
                                                  double epsilon) {
  if (!Supports(kind)) {
    return Status::InvalidArgument(
        "no Gram recurrence for this strategy (only H-bar and wavelet "
        "answer through an OLS closed form)");
  }
  if (width < 1) {
    return Status::InvalidArgument("width must be >= 1");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  RecurrenceOracle oracle;
  oracle.kind_ = kind;
  oracle.width_ = width;
  oracle.epsilon_ = epsilon;

  if (kind == StrategyKind::kWavelet) {
    oracle.analyzer_width_ = NextPowerOfTwo(width);
    oracle.sensitivity_ = HaarWeightedSensitivity(oracle.analyzer_width_);
    return oracle;
  }

  if (branching < 2) {
    return Status::InvalidArgument("branching must be >= 2");
  }
  oracle.branching_ = branching;
  oracle.analyzer_width_ = width;
  const TreeLayout tree(width, branching);
  const std::int64_t height = tree.height();
  oracle.height_ = height;
  oracle.sensitivity_ = HierarchicalSensitivity(tree);

  oracle.capacity_.assign(static_cast<std::size_t>(height), 1);
  for (std::int64_t d = height - 2; d >= 0; --d) {
    oracle.capacity_[static_cast<std::size_t>(d)] =
        oracle.capacity_[static_cast<std::size_t>(d + 1)] * branching;
  }

  // Full-subtree shapes, bottom-up. Leaves: S = w - t and w z = w^2 - wt
  // give (w, 1, w^2, w) — (1,1,1,1) inside the range, (0,1,0,0) outside.
  oracle.full_inside_.assign(static_cast<std::size_t>(height),
                             NodeState{1.0, 1.0, 1.0, 1.0});
  oracle.full_outside_beta_.assign(static_cast<std::size_t>(height), 1.0);
  const double k = static_cast<double>(branching);
  for (std::int64_t d = height - 2; d >= 0; --d) {
    const NodeState& child =
        oracle.full_inside_[static_cast<std::size_t>(d + 1)];
    const double a = k * child.alpha;
    const double b = k * child.beta;
    const double gamma = k * child.gamma;
    const double s = k * child.delta;
    NodeState& state = oracle.full_inside_[static_cast<std::size_t>(d)];
    state.alpha = a / (1.0 + b);
    state.beta = b / (1.0 + b);
    state.delta = s - gamma * state.alpha;
    state.gamma = gamma * (1.0 - state.beta);
    const double ob =
        k * oracle.full_outside_beta_[static_cast<std::size_t>(d + 1)];
    oracle.full_outside_beta_[static_cast<std::size_t>(d)] =
        ob / (1.0 + ob);
  }

  // The partial-subtree chain: at each depth at most one node has fewer
  // real leaves than its capacity — the ancestor of leaf width-1 — and
  // its children are a run of full subtrees, then possibly the next
  // depth's partial node, then all-padding subtrees (zero strategy rows,
  // skipped entirely).
  oracle.partial_inside_.assign(static_cast<std::size_t>(height),
                                NodeState{});
  oracle.partial_outside_beta_.assign(static_cast<std::size_t>(height),
                                      0.0);
  oracle.partial_exists_.assign(static_cast<std::size_t>(height), false);
  for (std::int64_t d = height - 2; d >= 0; --d) {
    const std::int64_t cap = oracle.capacity_[static_cast<std::size_t>(d)];
    const std::int64_t base = ((width - 1) / cap) * cap;
    const std::int64_t real = width - base;
    if (real == cap) continue;  // the last node at this depth is full
    oracle.partial_exists_[static_cast<std::size_t>(d)] = true;
    const std::int64_t child_cap =
        oracle.capacity_[static_cast<std::size_t>(d + 1)];
    const std::int64_t full_children = real / child_cap;
    const bool has_partial_child = real % child_cap != 0;
    const double f = static_cast<double>(full_children);
    const NodeState& fi =
        oracle.full_inside_[static_cast<std::size_t>(d + 1)];
    NodeState child_sum{f * fi.alpha, f * fi.beta, f * fi.delta,
                        f * fi.gamma};
    double outside_b =
        f * oracle.full_outside_beta_[static_cast<std::size_t>(d + 1)];
    if (has_partial_child) {
      const NodeState& pi =
          oracle.partial_inside_[static_cast<std::size_t>(d + 1)];
      child_sum.alpha += pi.alpha;
      child_sum.beta += pi.beta;
      child_sum.delta += pi.delta;
      child_sum.gamma += pi.gamma;
      outside_b +=
          oracle.partial_outside_beta_[static_cast<std::size_t>(d + 1)];
    }
    NodeState& state = oracle.partial_inside_[static_cast<std::size_t>(d)];
    state.alpha = child_sum.alpha / (1.0 + child_sum.beta);
    state.beta = child_sum.beta / (1.0 + child_sum.beta);
    state.delta = child_sum.delta - child_sum.gamma * state.alpha;
    state.gamma = child_sum.gamma * (1.0 - state.beta);
    oracle.partial_outside_beta_[static_cast<std::size_t>(d)] =
        outside_b / (1.0 + outside_b);
  }
  return oracle;
}

double RecurrenceOracle::RangeVariance(const Interval& range) const {
  const double scale = sensitivity_ / epsilon_;
  return 2.0 * scale * scale * GramQuadraticForm(range);
}

double RecurrenceOracle::GramQuadraticForm(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < width_,
                   "range outside the oracle's width");
  return kind_ == StrategyKind::kWavelet
             ? WaveletQuadraticForm(range)
             : EvalNode(0, 0, range).delta;
}

double RecurrenceOracle::GramQuadraticFormUnmemoized(
    const Interval& range) const {
  DPHIST_CHECK_MSG(kind_ == StrategyKind::kHBar,
                   "the reference recursion exists for the hierarchical "
                   "form only");
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < width_,
                   "range outside the oracle's width");
  return EvalNodeUnmemoized(0, 0, range).delta;
}

RecurrenceOracle::NodeState RecurrenceOracle::EvalNode(
    std::int64_t depth, std::int64_t base, const Interval& range) const {
  const std::int64_t cap = capacity_[static_cast<std::size_t>(depth)];
  const std::int64_t real_hi = std::min(base + cap, width_) - 1;
  const bool full = base + cap <= width_;
  if (range.lo() <= base && real_hi <= range.hi()) {
    return full ? full_inside_[static_cast<std::size_t>(depth)]
                : partial_inside_[static_cast<std::size_t>(depth)];
  }
  if (range.hi() < base || real_hi < range.lo()) {
    NodeState outside;
    outside.beta = full
                       ? full_outside_beta_[static_cast<std::size_t>(depth)]
                       : partial_outside_beta_[static_cast<std::size_t>(
                             depth)];
    return outside;
  }
  // The node straddles a range endpoint; combine its children. Only the
  // children straddling an endpoint recurse further — at most two per
  // level across the whole evaluation.
  const std::int64_t child_cap =
      capacity_[static_cast<std::size_t>(depth + 1)];
  NodeState sum;
  for (std::int64_t child = base; child < base + cap && child < width_;
       child += child_cap) {
    const NodeState c = EvalNode(depth + 1, child, range);
    sum.alpha += c.alpha;
    sum.beta += c.beta;
    sum.delta += c.delta;
    sum.gamma += c.gamma;
  }
  NodeState state;
  state.alpha = sum.alpha / (1.0 + sum.beta);
  state.beta = sum.beta / (1.0 + sum.beta);
  state.delta = sum.delta - sum.gamma * state.alpha;
  state.gamma = sum.gamma * (1.0 - state.beta);
  return state;
}

RecurrenceOracle::NodeState RecurrenceOracle::EvalNodeUnmemoized(
    std::int64_t depth, std::int64_t base, const Interval& range) const {
  const std::int64_t cap = capacity_[static_cast<std::size_t>(depth)];
  if (cap == 1) {
    const bool inside = range.Contains(base);
    return inside ? NodeState{1.0, 1.0, 1.0, 1.0}
                  : NodeState{0.0, 1.0, 0.0, 0.0};
  }
  const std::int64_t child_cap =
      capacity_[static_cast<std::size_t>(depth + 1)];
  NodeState sum;
  for (std::int64_t child = base; child < base + cap && child < width_;
       child += child_cap) {
    const NodeState c = EvalNodeUnmemoized(depth + 1, child, range);
    sum.alpha += c.alpha;
    sum.beta += c.beta;
    sum.delta += c.delta;
    sum.gamma += c.gamma;
  }
  NodeState state;
  state.alpha = sum.alpha / (1.0 + sum.beta);
  state.beta = sum.beta / (1.0 + sum.beta);
  state.delta = sum.delta - sum.gamma * state.alpha;
  state.gamma = sum.gamma * (1.0 - state.beta);
  return state;
}

double RecurrenceOracle::WaveletQuadraticForm(const Interval& range) const {
  const double p = static_cast<double>(analyzer_width_);
  const double len = static_cast<double>(range.Length());
  // Base row (all ones, |r|^2 = P): (w . r)^2 / |r|^4 = len^2 / P^2.
  double total = (len * len) / (p * p);
  // Detail rows: only the block containing each endpoint can see an
  // imbalanced overlap; every other block's halves contribute equally.
  for (std::int64_t block = analyzer_width_; block >= 2; block /= 2) {
    const std::int64_t half = block / 2;
    std::int64_t starts[2] = {(range.lo() / block) * block,
                              (range.hi() / block) * block};
    const int distinct = starts[0] == starts[1] ? 1 : 2;
    for (int i = 0; i < distinct; ++i) {
      const std::int64_t start = starts[i];
      const std::int64_t left = std::min(range.hi(), start + half - 1) -
                                std::max(range.lo(), start) + 1;
      const std::int64_t right =
          std::min(range.hi(), start + block - 1) -
          std::max(range.lo(), start + half) + 1;
      const double d = static_cast<double>(std::max<std::int64_t>(left, 0) -
                                           std::max<std::int64_t>(right, 0));
      total += (d * d) / (static_cast<double>(block) *
                          static_cast<double>(block));
    }
  }
  return total;
}

}  // namespace dphist::planner
