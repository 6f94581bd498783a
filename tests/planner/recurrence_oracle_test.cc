// Property suite pinning the Section 4 variance recurrences
// (planner/recurrence_oracle.h) against the dense matrix-mechanism
// oracle (paper/analysis/strategy_matrix.h). The two implementations share no
// code beyond the strategy definitions: the dense path materializes A,
// forms A^T A, and Cholesky-solves per query; the recurrence path never
// builds a matrix. Agreement to 1e-9 relative across widths, branchings,
// clipped (non-power) domains, and epsilons is therefore strong evidence
// both are the exact closed form.
//
// Where the dense Cholesky is unaffordable (Gram formation is
// O(rows * width^2)), the fast memoized recurrence is cross-checked
// against two independent references that stay O(width) per query: the
// table-free elimination (GramQuadraticFormUnmemoized) for H-bar, and a
// brute-force sum over every Haar detail row for the wavelet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "domain/interval.h"
#include "estimators/wavelet.h"
#include "paper/analysis/strategy_matrix.h"
#include "planner/recurrence_oracle.h"
#include "query/hierarchical_query.h"
#include "service/snapshot.h"
#include "tree/tree_layout.h"

namespace dphist::planner {
namespace {

// Boundary-heavy deterministic probe ranges for one width: units at both
// ends, the full domain, halves, thirds, and off-by-one interior ranges.
// Small widths get every range exhaustively.
std::vector<Interval> ProbeRanges(std::int64_t width) {
  std::vector<Interval> ranges;
  if (width <= 16) {
    for (std::int64_t lo = 0; lo < width; ++lo) {
      for (std::int64_t hi = lo; hi < width; ++hi) {
        ranges.push_back(Interval(lo, hi));
      }
    }
    return ranges;
  }
  const std::int64_t n = width;
  ranges.push_back(Interval(0, 0));
  ranges.push_back(Interval(n - 1, n - 1));
  ranges.push_back(Interval(n / 2, n / 2));
  ranges.push_back(Interval(0, n - 1));
  ranges.push_back(Interval(0, n / 2));
  ranges.push_back(Interval(n / 2, n - 1));
  ranges.push_back(Interval(1, n - 2));
  ranges.push_back(Interval(n / 3, 2 * n / 3));
  ranges.push_back(Interval(n / 4, 3 * n / 4 - 1));
  ranges.push_back(Interval(n / 7, n - n / 5));
  return ranges;
}

RecurrenceOracle MakeOracle(StrategyKind kind, std::int64_t width,
                            std::int64_t branching, double epsilon) {
  Result<RecurrenceOracle> oracle =
      RecurrenceOracle::Create(kind, width, branching, epsilon);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  return std::move(oracle).value();
}

void ExpectMatchesDense(StrategyKind kind, std::int64_t width,
                        std::int64_t branching, double epsilon) {
  SCOPED_TRACE("kind=" + std::string(StrategyKindName(kind)) +
               " width=" + std::to_string(width) +
               " branching=" + std::to_string(branching));
  RecurrenceOracle fast = MakeOracle(kind, width, branching, epsilon);
  linalg::Matrix strategy =
      kind == StrategyKind::kHBar
          ? HierarchicalStrategy(width, branching)
          : WaveletStrategy(fast.analyzer_width());
  Result<StrategyAnalyzer> dense =
      StrategyAnalyzer::Create(strategy, epsilon);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_DOUBLE_EQ(fast.sensitivity(), dense.value().sensitivity());
  for (const Interval& q : ProbeRanges(width)) {
    const double exact = dense.value().RangeVariance(q);
    const double closed = fast.RangeVariance(q);
    EXPECT_NEAR(closed, exact, 1e-9 * std::max(1.0, exact))
        << q.ToString();
  }
}

TEST(RecurrenceOracleTest, SupportsExactlyTheGramStrategies) {
  EXPECT_TRUE(RecurrenceOracle::Supports(StrategyKind::kHBar));
  EXPECT_TRUE(RecurrenceOracle::Supports(StrategyKind::kWavelet));
  EXPECT_FALSE(RecurrenceOracle::Supports(StrategyKind::kLTilde));
  EXPECT_FALSE(RecurrenceOracle::Supports(StrategyKind::kHTilde));
  EXPECT_FALSE(RecurrenceOracle::Supports(StrategyKind::kAuto));
}

TEST(RecurrenceOracleTest, CreateRejectsInvalidConfigurations) {
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kAuto, 8, 2, 1.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kLTilde, 8, 2, 1.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kHTilde, 8, 2, 1.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kHBar, 0, 2, 1.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kHBar, 8, 1, 1.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kHBar, 8, 2, 0.0).ok());
  EXPECT_FALSE(
      RecurrenceOracle::Create(StrategyKind::kWavelet, 8, 2, -1.0).ok());
}

TEST(RecurrenceOracleTest, HierarchicalMatchesDenseExhaustivelyAtSmallWidths) {
  // Every width from 1 (a root-only tree) through 64, every range at
  // widths <= 16, branchings from binary to 16-ary. Clipped domains
  // (every non-power width) exercise the partial-shape tables.
  for (std::int64_t branching : {2, 3, 5, 16}) {
    for (std::int64_t width = 1; width <= 64; ++width) {
      ExpectMatchesDense(StrategyKind::kHBar, width, branching, 1.0);
    }
  }
}

TEST(RecurrenceOracleTest, WaveletMatchesDenseExhaustivelyAtSmallWidths) {
  // Non-power widths pad internally; the dense comparison uses the same
  // padded strategy matrix, so the padding geometry is part of the pin.
  for (std::int64_t width = 1; width <= 64; ++width) {
    ExpectMatchesDense(StrategyKind::kWavelet, width, /*branching=*/2, 1.0);
  }
}

TEST(RecurrenceOracleTest, MatchesDenseAtLargerAndClippedWidths) {
  // Powers of two, their neighbours (maximally clipped trees), and a few
  // awkward composites. The dense Gram is O(width^3) to factorize, so
  // the widest cases only run in optimized builds.
  std::vector<std::int64_t> widths = {96, 100, 127, 128, 129, 200};
#ifdef NDEBUG
  widths.insert(widths.end(), {255, 256, 337, 511, 512});
#endif
  for (std::int64_t width : widths) {
    for (std::int64_t branching : {2, 3, 16}) {
      ExpectMatchesDense(StrategyKind::kHBar, width, branching, 1.0);
    }
    ExpectMatchesDense(StrategyKind::kWavelet, width, /*branching=*/2, 1.0);
  }
#ifdef NDEBUG
  // One four-digit dense pin per strategy in Release.
  ExpectMatchesDense(StrategyKind::kHBar, 1024, 2, 1.0);
  ExpectMatchesDense(StrategyKind::kWavelet, 1000, 2, 1.0);
#endif
}

TEST(RecurrenceOracleTest, EpsilonScalesTheNoiseFactorOnly) {
  for (double epsilon : {0.25, 0.7, 3.0}) {
    ExpectMatchesDense(StrategyKind::kHBar, 47, 3, epsilon);
    ExpectMatchesDense(StrategyKind::kWavelet, 48, 2, epsilon);
  }
  // Var scales as 1/eps^2; the quadratic form itself must not move.
  RecurrenceOracle tight = MakeOracle(StrategyKind::kHBar, 100, 2, 2.0);
  RecurrenceOracle loose = MakeOracle(StrategyKind::kHBar, 100, 2, 0.5);
  const Interval q(13, 77);
  EXPECT_DOUBLE_EQ(tight.GramQuadraticForm(q), loose.GramQuadraticForm(q));
  EXPECT_NEAR(loose.RangeVariance(q), 16.0 * tight.RangeVariance(q),
              1e-9 * loose.RangeVariance(q));
}

TEST(RecurrenceOracleTest, MemoizedMatchesTableFreeEliminationAt4096) {
  // The shape tables are the only thing the fast path adds over the
  // plain O(width) elimination; at widths where dense Cholesky is
  // unaffordable, pin the two against each other instead — including
  // the 4096 target and its clipped neighbour.
  for (std::int64_t width : {1000, 2048, 4095, 4096}) {
    for (std::int64_t branching : {2, 16}) {
      RecurrenceOracle oracle =
          MakeOracle(StrategyKind::kHBar, width, branching, 1.0);
      for (const Interval& q : ProbeRanges(width)) {
        const double memoized = oracle.GramQuadraticForm(q);
        const double reference = oracle.GramQuadraticFormUnmemoized(q);
        EXPECT_NEAR(memoized, reference, 1e-12 * std::max(1.0, reference))
            << "width " << width << " branching " << branching << " "
            << q.ToString();
      }
    }
  }
}

// Independent wavelet reference: sum over EVERY detail row of the padded
// Haar strategy, (w . r)^2 / |r|^4 with |r|^2 = block size, plus the base
// row's len^2 / P^2. O(P) per query and shares nothing with the oracle's
// boundary-block shortcut.
double BruteWaveletQuadraticForm(std::int64_t padded, const Interval& q) {
  const double len = static_cast<double>(q.Length());
  double total = len * len / (static_cast<double>(padded) *
                              static_cast<double>(padded));
  for (std::int64_t block = padded; block >= 2; block /= 2) {
    for (std::int64_t start = 0; start < padded; start += block) {
      const std::int64_t mid = start + block / 2;
      auto overlap = [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t a = std::max(lo, q.lo());
        const std::int64_t b = std::min(hi, q.hi());
        return b >= a ? b - a + 1 : 0;
      };
      const double diff =
          static_cast<double>(overlap(start, mid - 1) -
                              overlap(mid, start + block - 1));
      total += diff * diff /
               (static_cast<double>(block) * static_cast<double>(block));
    }
  }
  return total;
}

TEST(RecurrenceOracleTest, WaveletMatchesBruteForceHaarSumAt4096) {
  for (std::int64_t width : {1000, 2048, 4000, 4096}) {
    RecurrenceOracle oracle =
        MakeOracle(StrategyKind::kWavelet, width, /*branching=*/2, 1.0);
    for (const Interval& q : ProbeRanges(width)) {
      const double closed = oracle.GramQuadraticForm(q);
      const double brute =
          BruteWaveletQuadraticForm(oracle.analyzer_width(), q);
      EXPECT_NEAR(closed, brute, 1e-12 * std::max(1.0, brute))
          << "width " << width << " " << q.ToString();
    }
  }
}

TEST(RecurrenceOracleTest, WaveletPadsShardWidthToAPowerOfTwo) {
  // The oracle's internal power-of-two padding must be exactly the width
  // the dense Haar matrix is built at, shard by shard, or the two paths
  // could disagree about geometry at non-power domains.
  for (std::int64_t domain : {1, 5, 48, 100, 1000, 4096}) {
    for (std::int64_t shards : {1, 3}) {
      const std::int64_t requested = std::min<std::int64_t>(shards, domain);
      const std::int64_t shard_width = (domain + requested - 1) / requested;
      std::int64_t padded = 1;
      while (padded < shard_width) padded *= 2;
      RecurrenceOracle oracle = MakeOracle(StrategyKind::kWavelet,
                                           shard_width, 2, 1.0);
      EXPECT_EQ(oracle.analyzer_width(), padded)
          << "domain " << domain << " shards " << shards;
      EXPECT_DOUBLE_EQ(oracle.sensitivity(),
                       HaarWeightedSensitivity(oracle.analyzer_width()));
    }
  }
}

/// Domain sizes the sensitivity sweep covers: 1..70, then 2^j - 1, 2^j
/// and 2^j + 1 up to 2^12.
std::vector<std::int64_t> SensitivitySweepSizes() {
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 1; n <= 70; ++n) sizes.push_back(n);
  for (std::int64_t p = 128; p <= 4096; p *= 2) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  return sizes;
}

/// The largest dense strategy matrix the sweep materializes (32 MiB).
constexpr std::int64_t kDenseEntryBudget = std::int64_t{1} << 22;

/// StrategyL1Sensitivity of a strategy over `cols` columns whose rows
/// hold +-1 on the columns of one interval each (H and the weighted
/// Haar are both of this shape), computed with a difference array
/// instead of the dense matrix: the most rows covering one column.
double MaxColumnCover(std::int64_t cols, const std::vector<Interval>& rows) {
  std::vector<std::int64_t> delta(static_cast<std::size_t>(cols) + 1, 0);
  for (const Interval& row : rows) {
    delta[static_cast<std::size_t>(row.lo())] += 1;
    delta[static_cast<std::size_t>(row.hi()) + 1] -= 1;
  }
  std::int64_t cover = 0;
  std::int64_t worst = 0;
  for (std::int64_t j = 0; j < cols; ++j) {
    cover += delta[static_cast<std::size_t>(j)];
    worst = std::max(worst, cover);
  }
  return static_cast<double>(worst);
}

/// L1 sensitivity of HierarchicalStrategy(n, k): from the dense matrix
/// when it fits the budget, else from its rows' column cover.
double DenseHierarchicalSensitivity(std::int64_t n, std::int64_t k) {
  const TreeLayout tree(n, k);
  if (tree.node_count() * n <= kDenseEntryBudget) {
    return StrategyL1Sensitivity(HierarchicalStrategy(n, k));
  }
  std::vector<Interval> rows;
  for (std::int64_t v = 0; v < tree.node_count(); ++v) {
    const Interval covered = tree.NodeRange(v);
    if (covered.lo() >= n) continue;  // padding only: an all-zero row
    rows.emplace_back(covered.lo(), std::min(covered.hi(), n - 1));
  }
  return MaxColumnCover(n, rows);
}

/// L1 sensitivity of WaveletStrategy(padded), the same way.
double DenseWaveletSensitivity(std::int64_t padded) {
  if (padded * padded <= kDenseEntryBudget) {
    return StrategyL1Sensitivity(WaveletStrategy(padded));
  }
  std::vector<Interval> rows = {Interval(0, padded - 1)};  // base row
  for (std::int64_t level = 1; level < padded; level *= 2) {
    const std::int64_t block = padded / level;
    for (std::int64_t i = 0; i < level; ++i) {
      rows.emplace_back(i * block, (i + 1) * block - 1);
    }
  }
  return MaxColumnCover(padded, rows);
}

// Each strategy's sensitivity is written once in core and called by its
// estimator and by the planner's oracles; the dense strategy matrices
// (the matrix-mechanism definition) are the reference.
TEST(RecurrenceOracleTest, ClosedFormSensitivitiesMatchTheBuiltMatrices) {
  for (std::int64_t n : SensitivitySweepSizes()) {
    for (std::int64_t k : {2, 3, 4, 16}) {
      const double dense = DenseHierarchicalSensitivity(n, k);
      EXPECT_DOUBLE_EQ(HierarchicalSensitivity(TreeLayout(n, k)), dense)
          << "n " << n << " branching " << k;
      EXPECT_DOUBLE_EQ(HierarchicalQuery(n, k).Sensitivity(), dense);
      EXPECT_DOUBLE_EQ(MakeOracle(StrategyKind::kHBar, n, k, 1.0).sensitivity(),
                       dense)
          << "n " << n << " branching " << k;
    }
    std::int64_t padded = 1;
    while (padded < n) padded *= 2;
    const double dense = DenseWaveletSensitivity(padded);
    EXPECT_DOUBLE_EQ(HaarWeightedSensitivity(padded), dense) << "n " << n;
    EXPECT_DOUBLE_EQ(
        MakeOracle(StrategyKind::kWavelet, n, 2, 1.0).sensitivity(), dense)
        << "n " << n;
  }
}


}  // namespace
}  // namespace dphist::planner
