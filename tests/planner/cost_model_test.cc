#include "planner/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "paper/analysis/strategy_matrix.h"
#include "planner/variance_oracle.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"
#include "tests/support/variance_oracle.h"

namespace dphist::planner {
namespace {

SnapshotOptions LinearOptions(StrategyKind kind, double epsilon = 1.0,
                              std::int64_t shards = 1) {
  SnapshotOptions options;
  options.strategy = kind;
  options.epsilon = epsilon;
  options.shards = shards;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  return options;
}

TEST(CostModelTest, LTildeUnitWorkloadMatchesClosedForm) {
  CostModel model(64);
  WorkloadProfile units(64);
  units.AddLength(1, 10.0);
  auto cost =
      model.Evaluate(LinearOptions(StrategyKind::kLTilde, 0.5), units);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  // 2 * 1 / 0.5^2 = 8, independent of placement.
  EXPECT_DOUBLE_EQ(cost.value().mean_variance, 8.0);
  EXPECT_DOUBLE_EQ(cost.value().worst_variance, 8.0);
}

TEST(CostModelTest, SinglePlacementLengthMatchesOracleExactly) {
  // The full-domain length has exactly one placement, so the cost model
  // must reproduce the oracle's number with no averaging slack, for
  // every strategy.
  const std::int64_t n = 32;
  CostModel model(n);
  WorkloadProfile full(n);
  full.AddLength(n);
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    SnapshotOptions options = LinearOptions(kind, 1.0, 2);
    auto cost = model.Evaluate(options, full);
    ASSERT_TRUE(cost.ok()) << StrategyKindName(kind);
    VarianceOracle oracle = test_support::MakeVarianceOracle(options, n);
    EXPECT_DOUBLE_EQ(cost.value().mean_variance,
                     oracle.RangeVariance(Interval(0, n - 1)))
        << StrategyKindName(kind);
  }
}

TEST(CostModelTest, MeanIsWorkloadWeightedAcrossLengths) {
  // Two L~ lengths with 3:1 weights: the mean interpolates exactly
  // (L~ variance is placement-invariant, 2|q|/eps^2).
  CostModel model(64);
  WorkloadProfile profile(64);
  profile.AddLength(1, 3.0);
  profile.AddLength(8, 1.0);
  auto cost = model.Evaluate(LinearOptions(StrategyKind::kLTilde), profile);
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost.value().mean_variance, (3.0 * 2.0 + 1.0 * 16.0) / 4.0);
  EXPECT_DOUBLE_EQ(cost.value().worst_variance, 16.0);
}

TEST(CostModelTest, ShardingReducesInteriorHierarchicalCost) {
  // Mirrors the oracle property the planner exploits: shard trees are
  // shallower, so short H~ queries get cheaper as shards increase.
  CostModel model(64);
  WorkloadProfile shorts(64);
  shorts.AddLength(4);
  auto deep =
      model.Evaluate(LinearOptions(StrategyKind::kHTilde, 1.0, 1), shorts);
  auto shallow =
      model.Evaluate(LinearOptions(StrategyKind::kHTilde, 1.0, 8), shorts);
  ASSERT_TRUE(deep.ok());
  ASSERT_TRUE(shallow.ok());
  EXPECT_LT(shallow.value().mean_variance, deep.value().mean_variance);
}

TEST(CostModelTest, RoundingKnobsAreLinearizedNotRejected) {
  // Serving defaults round/prune; the cost model ranks by the linear
  // proxy instead of refusing.
  CostModel model(32);
  WorkloadProfile profile(32);
  profile.AddLength(4);
  SnapshotOptions rounded;  // defaults: rounding and pruning on
  rounded.strategy = StrategyKind::kHBar;
  auto cost = model.Evaluate(rounded, profile);
  EXPECT_TRUE(cost.ok()) << cost.status().ToString();
}

/// Independent sharded reference: the sum, over the shards a range
/// touches, of the dense Gram Cholesky variance of the range clipped to
/// each shard (shards draw independent noise). Factorizes each distinct
/// shard width once.
class DenseShardedVariance {
 public:
  DenseShardedVariance(const SnapshotOptions& config, std::int64_t n)
      : n_(n), shard_width_((n + config.shards - 1) / config.shards) {
    for (std::int64_t base = 0; base < n; base += shard_width_) {
      const std::int64_t width = std::min(shard_width_, n - base);
      if (analyzers_.count(width) != 0) continue;
      std::int64_t padded = 1;
      while (padded < width) padded *= 2;
      Result<StrategyAnalyzer> analyzer = StrategyAnalyzer::Create(
          config.strategy == StrategyKind::kWavelet
              ? WaveletStrategy(padded)
              : HierarchicalStrategy(width, config.branching),
          config.epsilon);
      EXPECT_TRUE(analyzer.ok());
      analyzers_.emplace(width, std::move(analyzer).value());
    }
  }

  double operator()(const Interval& range) const {
    double total = 0.0;
    for (std::int64_t base = (range.lo() / shard_width_) * shard_width_;
         base <= range.hi(); base += shard_width_) {
      const std::int64_t width = std::min(shard_width_, n_ - base);
      const std::int64_t lo = std::max(range.lo(), base);
      const std::int64_t hi = std::min(range.hi(), base + width - 1);
      total += analyzers_.at(width).RangeVariance(
          Interval(lo - base, hi - base));
    }
    return total;
  }

 private:
  std::int64_t n_;
  std::int64_t shard_width_;
  std::map<std::int64_t, StrategyAnalyzer> analyzers_;
};

TEST(CostModelTest, ShardedOracleMatchesDenseShardSums) {
  // The planner's oracle must compose shards exactly: every probe range
  // (every placement of lengths 1, 7, 40 and the full domain) costs the
  // sum of the dense per-shard variances, for H-bar and the wavelet.
  // Seven shards leave a narrower last shard (six of width 14, one of 12).
  const std::int64_t n = 96;
  for (StrategyKind kind : {StrategyKind::kHBar, StrategyKind::kWavelet}) {
    for (std::int64_t shards : {1, 3, 7, 8}) {
      SCOPED_TRACE(std::string(StrategyKindName(kind)) + " shards " +
                   std::to_string(shards));
      const SnapshotOptions config = LinearOptions(kind, 0.7, shards);
      const VarianceOracle oracle =
          test_support::MakeVarianceOracle(config, n);
      const DenseShardedVariance dense(config, n);
      for (std::int64_t length : {1, 7, 40, 96}) {
        for (std::int64_t lo = 0; lo + length <= n; ++lo) {
          const Interval q(lo, lo + length - 1);
          EXPECT_NEAR(oracle.RangeVariance(q), dense(q), 1e-9 * dense(q))
              << q.ToString();
        }
      }
    }
  }
}

TEST(CostModelTest, CachedRecostEqualsFromScratchBitForBit) {
  // The contract that makes the memo safe to trust: a warm model's
  // re-evaluation over memoized placement variances must equal a cold
  // model's first evaluation exactly — no tolerance.
  const std::int64_t n = 128;
  CostModel warm(n);

  WorkloadProfile first(n);
  first.AddLength(1);
  first.AddLength(32);
  first.AddLength(8, 3.0);

  WorkloadProfile drifted(n);
  drifted.AddLength(1);
  drifted.AddLength(32);
  drifted.AddLength(32);       // same length, more weight
  drifted.AddLength(8, 9.0);   // weight moved
  drifted.AddLength(64, 1.0);  // brand-new length

  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    for (std::int64_t shards : {1, 4}) {
      const SnapshotOptions config = LinearOptions(kind, 1.0, shards);
      for (const WorkloadProfile* profile : {&first, &drifted}) {
        CostModel cold(n);
        auto cached = warm.Evaluate(config, *profile);
        auto scratch = cold.Evaluate(config, *profile);
        ASSERT_TRUE(cached.ok());
        ASSERT_TRUE(scratch.ok());
        EXPECT_EQ(cached.value().mean_variance,
                  scratch.value().mean_variance)
            << StrategyKindName(kind) << " shards " << shards;
        EXPECT_EQ(cached.value().worst_variance,
                  scratch.value().worst_variance)
            << StrategyKindName(kind) << " shards " << shards;
      }
    }
  }
  // Second pass over `drifted` for every candidate: all lengths reused.
  const auto before = warm.stats();
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    for (std::int64_t shards : {1, 4}) {
      auto cached = warm.Evaluate(LinearOptions(kind, 1.0, shards), drifted);
      ASSERT_TRUE(cached.ok());
    }
  }
  const auto after = warm.stats();
  EXPECT_EQ(after.lengths_costed, before.lengths_costed);
  EXPECT_GT(after.lengths_reused, before.lengths_reused);
}

TEST(CostModelTest, ReusesMemoizedLengths) {
  const std::int64_t n = 64;
  CostModel model(n);
  const SnapshotOptions config = LinearOptions(StrategyKind::kHBar);

  WorkloadProfile profile(n);
  profile.AddLength(4);
  profile.AddLength(16);
  ASSERT_TRUE(model.Evaluate(config, profile).ok());
  EXPECT_EQ(model.stats().lengths_costed, 2u);
  EXPECT_EQ(model.stats().lengths_reused, 0u);

  // Same profile: every length served from the memo.
  ASSERT_TRUE(model.Evaluate(config, profile).ok());
  EXPECT_EQ(model.stats().lengths_costed, 2u);
  EXPECT_EQ(model.stats().lengths_reused, 2u);

  // Weight moves on a known length: still no oracle work; only a
  // never-seen length runs the oracle.
  profile.AddLength(4, 2.0);
  ASSERT_TRUE(model.Evaluate(config, profile).ok());
  EXPECT_EQ(model.stats().lengths_costed, 2u);
  profile.AddLength(32);
  ASSERT_TRUE(model.Evaluate(config, profile).ok());
  EXPECT_EQ(model.stats().lengths_costed, 3u);
}

TEST(CostModelTest, RejectsAutoEmptyProfilesAndBadConfigs) {
  CostModel model(64);
  WorkloadProfile profile(64);
  profile.AddLength(1);
  EXPECT_FALSE(
      model.Evaluate(LinearOptions(StrategyKind::kAuto), profile).ok());
  WorkloadProfile empty(64);
  EXPECT_FALSE(
      model.Evaluate(LinearOptions(StrategyKind::kLTilde), empty).ok());
  WorkloadProfile mismatched(32);
  mismatched.AddLength(1);
  EXPECT_FALSE(
      model.Evaluate(LinearOptions(StrategyKind::kLTilde), mismatched).ok());
  EXPECT_FALSE(
      model.Evaluate(LinearOptions(StrategyKind::kLTilde, -1.0), profile)
          .ok());
  // A refused config leaves nothing in the memo: the valid one after it
  // still runs the oracle once.
  ASSERT_TRUE(
      model.Evaluate(LinearOptions(StrategyKind::kLTilde), profile).ok());
  EXPECT_EQ(model.stats().lengths_costed, 1u);
}

}  // namespace
}  // namespace dphist::planner
