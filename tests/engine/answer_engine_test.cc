// Kernel conformance suite: the columnar answer engine must be
// BIT-identical to the decomposition-walker path (Snapshot::RangeCount)
// for every strategy it flattens, at every dispatch level this machine
// supports, over randomized domains / shard counts / batch sizes and the
// adversarial edges (single points, full domain, shard boundaries,
// shard-spanning ranges). "Bit-identical" is checked by comparing the
// doubles' bit patterns, not with a tolerance.

#include "engine/answer_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "engine/answer_plan.h"
#include "engine/kernels.h"
#include "service/snapshot.h"

namespace dphist {
namespace {

using engine::ActiveKernel;
using engine::AnswerBatch;
using engine::BestSupportedKernel;
using engine::ForceKernel;
using engine::KernelKind;
using engine::KernelKindName;
using engine::KernelSupported;
using engine::ParseKernelKind;

/// RAII guard: forces one dispatch level for the test body, then
/// restores env/auto selection so tests compose in any order.
class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind kind) { ForceKernel(kind); }
  ~ScopedKernel() { ForceKernel(std::nullopt); }
};

std::vector<KernelKind> SupportedKernels() {
  std::vector<KernelKind> kinds;
  for (int k = 0; k < engine::kKernelKindCount; ++k) {
    const KernelKind kind = static_cast<KernelKind>(k);
    if (KernelSupported(kind)) kinds.push_back(kind);
  }
  return kinds;
}

Histogram TestData(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Histogram::FromCounts(ZipfCounts(n, 1.1, 8 * n, &rng));
}

std::shared_ptr<const Snapshot> MustBuild(const Histogram& data,
                                          const SnapshotOptions& options,
                                          std::uint64_t seed) {
  Rng rng(seed);
  auto built = Snapshot::Build(data, options, /*epoch=*/1, &rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.value();
}

/// A batch that hits every interesting shape: single points, the full
/// domain, ranges ending exactly on shard boundaries, spanning ranges,
/// plus uniform random fill.
std::vector<Interval> MixedBatch(std::int64_t n, std::int64_t shard_width,
                                 std::size_t count, Rng* rng) {
  std::vector<Interval> ranges;
  ranges.reserve(count);
  ranges.push_back(Interval(0, 0));
  ranges.push_back(Interval(n - 1, n - 1));
  ranges.push_back(Interval(0, n - 1));
  for (std::int64_t edge = shard_width - 1; edge < n && ranges.size() < count;
       edge += shard_width) {
    ranges.push_back(Interval(edge, edge));                      // boundary
    if (edge + 1 < n) ranges.push_back(Interval(edge, edge + 1));  // spanning
  }
  while (ranges.size() < count) {
    std::int64_t a = rng->NextInt(0, n - 1);
    std::int64_t b = rng->NextInt(0, n - 1);
    if (a > b) std::swap(a, b);
    ranges.push_back(Interval(a, b));
  }
  ranges.resize(count, Interval(0, 0));
  return ranges;
}

/// Bit-level equality, the whole point of the suite: EXPECT_DOUBLE_EQ
/// would hide a ULP of drift.
void ExpectBitIdentical(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::vector<Interval>& ranges,
                        KernelKind kind) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &expected[i], sizeof(want));
    std::memcpy(&got, &actual[i], sizeof(got));
    ASSERT_EQ(want, got)
        << "kernel=" << KernelKindName(kind) << " query " << i << " ["
        << ranges[i].lo() << ", " << ranges[i].hi() << "]: walker "
        << expected[i] << " vs engine " << actual[i];
  }
}

struct Config {
  StrategyKind strategy;
  std::int64_t domain;
  std::int64_t shards;
  bool round;
  std::size_t batch;
};

TEST(AnswerEngineConformance, BitIdenticalToWalkerAtEveryKernelLevel) {
  const std::vector<Config> configs = {
      {StrategyKind::kLTilde, 1, 1, true, 1},
      {StrategyKind::kLTilde, 7, 3, true, 64},
      {StrategyKind::kLTilde, 1024, 8, true, 4096},
      {StrategyKind::kLTilde, 1000, 7, false, 977},
      {StrategyKind::kWavelet, 256, 1, true, 333},
      {StrategyKind::kWavelet, 513, 5, false, 2048},
      {StrategyKind::kHBar, 512, 4, false, 1024},
      {StrategyKind::kHBar, 300, 6, false, 17},
  };
  std::uint64_t seed = 1234;
  for (const Config& config : configs) {
    Histogram data = TestData(config.domain, ++seed);
    SnapshotOptions options;
    options.strategy = config.strategy;
    options.shards = config.shards;
    options.round_to_nonnegative_integers = config.round;
    if (config.strategy == StrategyKind::kHBar) {
      // H-bar only flattens when inference leaves the tree exactly
      // consistent, which is guaranteed with rounding and pruning off
      // (its answers are then raw prefix differences — the rounding that
      // did happen was at node level, never on the final answer).
      options.round_to_nonnegative_integers = false;
      options.prune_nonpositive_subtrees = false;
    }
    auto snap = MustBuild(data, options, ++seed);
    const engine::AnswerPlan* plan = snap->answer_plan();
    ASSERT_NE(plan, nullptr)
        << StrategyKindName(config.strategy) << " should flatten";

    Rng range_rng(++seed);
    std::vector<Interval> ranges =
        MixedBatch(config.domain, snap->shard_width(), config.batch,
                   &range_rng);
    std::vector<double> walker(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      walker[i] = snap->RangeCount(ranges[i]);
    }
    for (KernelKind kind : SupportedKernels()) {
      ScopedKernel forced(kind);
      ASSERT_EQ(ActiveKernel(), kind);
      std::vector<double> engine_out(ranges.size(), -1.0);
      AnswerBatch(*plan, ranges.data(), /*sel=*/nullptr, ranges.size(),
                  engine_out.data());
      ExpectBitIdentical(walker, engine_out, ranges, kind);
    }
  }
}

TEST(AnswerEngineConformance, SelectionListAnswersTheSelectedQueries) {
  Histogram data = TestData(512, 99);
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.shards = 4;
  auto snap = MustBuild(data, options, 100);
  ASSERT_NE(snap->answer_plan(), nullptr);

  Rng range_rng(101);
  std::vector<Interval> ranges =
      MixedBatch(512, snap->shard_width(), 64, &range_rng);
  // Every other query, in scrambled order — the cache-miss shape.
  std::vector<std::int32_t> sel;
  for (std::int32_t i = static_cast<std::int32_t>(ranges.size()) - 1; i >= 0;
       i -= 2) {
    sel.push_back(i);
  }
  std::vector<double> out(sel.size(), -1.0);
  AnswerBatch(*snap->answer_plan(), ranges.data(), sel.data(), sel.size(),
              out.data());
  for (std::size_t j = 0; j < sel.size(); ++j) {
    const double want = snap->RangeCount(ranges[static_cast<std::size_t>(
        sel[j])]);
    std::uint64_t want_bits = 0;
    std::uint64_t got_bits = 0;
    std::memcpy(&want_bits, &want, sizeof(want_bits));
    std::memcpy(&got_bits, &out[j], sizeof(got_bits));
    EXPECT_EQ(want_bits, got_bits) << "sel[" << j << "] = " << sel[j];
  }
}

TEST(AnswerEnginePlan, PresenceMatchesStrategy) {
  Histogram data = TestData(128, 7);
  SnapshotOptions options;
  options.shards = 4;

  options.strategy = StrategyKind::kLTilde;
  EXPECT_NE(MustBuild(data, options, 8)->answer_plan(), nullptr);

  options.strategy = StrategyKind::kWavelet;
  EXPECT_NE(MustBuild(data, options, 9)->answer_plan(), nullptr);

  // H~ answers by decomposition walk; never flattenable.
  options.strategy = StrategyKind::kHTilde;
  EXPECT_EQ(MustBuild(data, options, 10)->answer_plan(), nullptr);

  // H-bar with rounding and pruning off is exactly consistent and
  // serves from its inferred prefix table.
  options.strategy = StrategyKind::kHBar;
  options.round_to_nonnegative_integers = false;
  options.prune_nonpositive_subtrees = false;
  EXPECT_NE(MustBuild(data, options, 11)->answer_plan(), nullptr);

  // With Section 5.2 rounding/pruning the tree may lose exact
  // consistency; whatever the construction decided, the plan's presence
  // must agree with the fast-path choice, and any plan that does exist
  // must still answer identically to the walker.
  options.round_to_nonnegative_integers = true;
  options.prune_nonpositive_subtrees = true;
  auto rounded = MustBuild(data, options, 12);
  if (rounded->answer_plan() != nullptr) {
    std::vector<Interval> ranges = {Interval(0, 127), Interval(3, 90)};
    std::vector<double> out(ranges.size());
    AnswerBatch(*rounded->answer_plan(), ranges.data(), nullptr, ranges.size(),
                out.data());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(out[i], rounded->RangeCount(ranges[i]));
    }
  }
}

TEST(AnswerEnginePlan, LayoutIsAlignedAndIndexed) {
  Histogram data = TestData(100, 21);
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.shards = 3;  // width 34: shards of 34, 34, 32 positions
  auto snap = MustBuild(data, options, 22);
  const engine::AnswerPlan* plan = snap->answer_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->domain_size, 100);
  EXPECT_EQ(plan->shard_count, 3);
  EXPECT_EQ(plan->shard_width, 34);
  ASSERT_EQ(plan->offsets.size(), 3u);
  EXPECT_EQ(plan->offsets[0], 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan->prefix.data()) % 64, 0u);
  for (std::int64_t s = 0; s < plan->shard_count; ++s) {
    // Each shard's row starts on a 64-byte boundary.
    EXPECT_EQ((plan->offsets[static_cast<std::size_t>(s)] * 8) % 64, 0)
        << "shard " << s;
  }
}

TEST(AnswerEngineKernels, ParseAndNameRoundTrip) {
  for (int k = 0; k < engine::kKernelKindCount; ++k) {
    const KernelKind kind = static_cast<KernelKind>(k);
    auto parsed = ParseKernelKind(KernelKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseKernelKind("avx512").ok());
  EXPECT_FALSE(ParseKernelKind("").ok());
}

TEST(AnswerEngineKernels, ForceClampsToSupportedAndRestores) {
  EXPECT_TRUE(KernelSupported(KernelKind::kScalar));
  {
    ScopedKernel forced(KernelKind::kScalar);
    EXPECT_EQ(ActiveKernel(), KernelKind::kScalar);
  }
  // An unsupported request clamps to the best supported level rather
  // than dispatching to code the CPU cannot run.
  ForceKernel(KernelKind::kAvx2);
  if (!KernelSupported(KernelKind::kAvx2)) {
    EXPECT_EQ(ActiveKernel(), BestSupportedKernel());
  } else {
    EXPECT_EQ(ActiveKernel(), KernelKind::kAvx2);
  }
  ForceKernel(std::nullopt);
}

TEST(AnswerEngineCounters, TallyBatchesAndQueries) {
  Histogram data = TestData(64, 55);
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.shards = 2;
  auto snap = MustBuild(data, options, 56);
  ASSERT_NE(snap->answer_plan(), nullptr);
  std::vector<Interval> ranges = {Interval(0, 10), Interval(5, 63),
                                  Interval(40, 40)};
  std::vector<double> out(ranges.size());

  const engine::EngineCounters before = engine::GlobalEngineCounters();
  AnswerBatch(*snap->answer_plan(), ranges.data(), nullptr, ranges.size(),
              out.data());
  const engine::EngineCounters after = engine::GlobalEngineCounters();
  EXPECT_EQ(after.total_batches(), before.total_batches() + 1);
  EXPECT_EQ(after.total_queries(), before.total_queries() + ranges.size());
}

}  // namespace
}  // namespace dphist
