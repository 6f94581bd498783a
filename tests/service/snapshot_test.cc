#include "service/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"

namespace dphist {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(11);
  return Histogram::FromCounts(ZipfCounts(n, 1.2, 4 * n, &rng));
}

std::shared_ptr<const Snapshot> MustBuild(const Histogram& data,
                                          const SnapshotOptions& options,
                                          std::uint64_t epoch,
                                          std::uint64_t seed) {
  Rng rng(seed);
  auto built = Snapshot::Build(data, options, epoch, &rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.value();
}

TEST(SnapshotTest, BuildValidatesOptions) {
  // Build is the serving layer's one gate: every input a shard
  // constructor would CHECK-abort on is an InvalidArgument here, for
  // every strategy, before any shard exists.
  Histogram data = TestData(16);
  Rng rng(1);
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    SCOPED_TRACE(StrategyKindName(kind));
    SnapshotOptions valid;
    valid.strategy = kind;
    valid.shards = 3;
    struct Row {
      const char* what;
      SnapshotOptions options;
      Rng* rng;
    };
    std::vector<Row> rows;
    rows.push_back({"null rng", valid, nullptr});
    for (double epsilon : {0.0, -1.0}) {
      rows.push_back({"epsilon <= 0", valid, &rng});
      rows.back().options.epsilon = epsilon;
    }
    rows.push_back({"branching < 2", valid, &rng});
    rows.back().options.branching = 1;
    rows.push_back({"shards < 1", valid, &rng});
    rows.back().options.shards = 0;
    // A branching no tree can be padded to: a tree of 2^40 + 1 nodes
    // per shard. Only the tree strategies read branching at all.
    SnapshotOptions absurd = valid;
    absurd.branching = std::int64_t{1} << 40;
    const bool tree =
        kind == StrategyKind::kHTilde || kind == StrategyKind::kHBar;
    if (tree) rows.push_back({"branching pads past 2^31 nodes", absurd, &rng});
    for (const Row& row : rows) {
      auto built = Snapshot::Build(data, row.options, 1, row.rng);
      ASSERT_FALSE(built.ok()) << row.what;
      EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument)
          << row.what;
    }
    EXPECT_TRUE(Snapshot::Build(data, valid, 1, &rng).ok());
    if (!tree) {
      EXPECT_TRUE(Snapshot::Build(data, absurd, 1, &rng).ok());
    }
  }
}

TEST(SnapshotTest, GateRefusesNonFiniteEpsilon) {
  // NaN passes a plain `epsilon <= 0.0` test and +inf makes a zero
  // noise scale, so either would reach the noise samplers' aborts. A
  // state directory's bytes can carry both once their CRC passes, so
  // Build and Restore must refuse them as the gate's InvalidArgument.
  const Histogram data = TestData(16);
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(epsilon);
    SnapshotOptions options;
    options.strategy = StrategyKind::kLTilde;
    options.epsilon = epsilon;
    const Status gate = CheckReleaseOptions(options, data.size());
    ASSERT_FALSE(gate.ok());
    EXPECT_EQ(gate.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(gate.message(), "epsilon must be finite");

    auto restored = Snapshot::Restore(
        options, 1, data.size(),
        {std::vector<double>(static_cast<std::size_t>(data.size()), 1.0)});
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

    Rng rng(1);
    auto built = Snapshot::Build(data, options, 1, &rng);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, ReleaseGateCountsPaddedShardTreesWithoutBuilding) {
  // CheckReleaseOptions counts every shard's padded tree against 2^31
  // nodes in all, for domains no test could allocate.
  struct Row {
    StrategyKind strategy;
    std::int64_t branching;
    std::int64_t shards;
    std::int64_t domain;
    bool ok;
  };
  const std::int64_t k30 = std::int64_t{1} << 30;
  const Row rows[] = {
      // One binary tree over 2^30 leaves: 2^31 - 1 nodes, the most that
      // passes; one more leaf pads to 2^31 leaves.
      {StrategyKind::kHBar, 2, 1, k30, true},
      {StrategyKind::kHBar, 2, 1, k30 + 1, false},
      {StrategyKind::kHTilde, 2, 1, k30 + 1, false},
      {StrategyKind::kAuto, 2, 1, k30 + 1, false},
      // Shards add up: 2 x (2^31 - 1) fails, 4 x (2^29 - 1) passes.
      {StrategyKind::kHBar, 2, 2, 2 * k30, false},
      {StrategyKind::kHBar, 2, 4, k30, true},
      // Branching beyond the domain: k + 1 nodes per shard, no overflow
      // at any k.
      {StrategyKind::kHBar, std::int64_t{1} << 40, 1, 5000, false},
      {StrategyKind::kHBar, INT64_MAX, 64, 5000, false},
      {StrategyKind::kHBar, std::int64_t{1} << 40, 1, 1, true},
      {StrategyKind::kHBar, std::int64_t{1} << 20, 1, 5000, true},
      // L~ and wavelet have no tree.
      {StrategyKind::kLTilde, INT64_MAX, 1, k30 + 1, true},
      {StrategyKind::kWavelet, INT64_MAX, 1, k30 + 1, true},
  };
  for (const Row& row : rows) {
    SnapshotOptions options;
    options.strategy = row.strategy;
    options.branching = row.branching;
    options.shards = row.shards;
    SCOPED_TRACE(std::string(StrategyKindName(row.strategy)) + " k=" +
                 std::to_string(row.branching) + " shards=" +
                 std::to_string(row.shards) + " n=" +
                 std::to_string(row.domain));
    const Status status = CheckReleaseOptions(options, row.domain);
    EXPECT_EQ(status.ok(), row.ok) << status.ToString();
    if (!row.ok) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
  // The refusal names the branching and the shard width.
  SnapshotOptions options;
  options.branching = std::int64_t{1} << 40;
  EXPECT_EQ(CheckReleaseOptions(options, 5000).message(),
            "branching 1099511627776 over shards of width 5000 would pad "
            "the release's trees past 2^31 nodes");
}

TEST(SnapshotTest, CarriesEpochAndOptions) {
  SnapshotOptions options;
  options.epsilon = 0.25;
  options.strategy = StrategyKind::kHTilde;
  auto snap = MustBuild(TestData(32), options, 42, 7);
  EXPECT_EQ(snap->epoch(), 42u);
  EXPECT_DOUBLE_EQ(snap->epsilon(), 0.25);
  EXPECT_EQ(snap->strategy(), StrategyKind::kHTilde);
  EXPECT_EQ(snap->domain_size(), 32);
}

TEST(SnapshotTest, ShardGeometryClampsAndCoversUnevenDomains) {
  SnapshotOptions options;
  options.shards = 4;
  // 37 positions over 4 shards: width ceil(37/4) = 10, last shard 7 wide.
  auto snap = MustBuild(TestData(37), options, 1, 7);
  EXPECT_EQ(snap->shard_count(), 4);
  EXPECT_EQ(snap->shard_width(), 10);

  // More shards than positions: clamped to one estimator per position.
  options.shards = 100;
  auto tiny = MustBuild(TestData(5), options, 1, 7);
  EXPECT_EQ(tiny->shard_count(), 5);
  EXPECT_EQ(tiny->shard_width(), 1);
}

TEST(SnapshotTest, SameSeedReproducesIdenticalAnswers) {
  Histogram data = TestData(64);
  SnapshotOptions options;
  options.shards = 3;
  auto a = MustBuild(data, options, 1, 99);
  auto b = MustBuild(data, options, 2, 99);  // epoch differs, seed equal
  for (std::int64_t lo = 0; lo < 64; lo += 7) {
    Interval q(lo, 63);
    EXPECT_EQ(a->RangeCount(q), b->RangeCount(q));
  }
}

TEST(SnapshotTest, SpanningAnswersAreSumsOfClippedShardAnswers) {
  Histogram data = TestData(40);
  SnapshotOptions options;
  options.shards = 4;  // width 10
  options.strategy = StrategyKind::kHBar;
  auto snap = MustBuild(data, options, 1, 3);
  ASSERT_EQ(snap->shard_count(), 4);

  // [7, 33] clips to [7,9] in shard 0, [0,9] in shards 1-2, [0,3] in 3.
  double manual = snap->shard(0).RangeCount(Interval(7, 9)) +
                  snap->shard(1).RangeCount(Interval(0, 9)) +
                  snap->shard(2).RangeCount(Interval(0, 9)) +
                  snap->shard(3).RangeCount(Interval(0, 3));
  EXPECT_DOUBLE_EQ(snap->RangeCount(Interval(7, 33)), manual);

  // A range inside one shard is exactly that shard's local answer.
  EXPECT_DOUBLE_EQ(snap->RangeCount(Interval(12, 17)),
                   snap->shard(1).RangeCount(Interval(2, 7)));
}

TEST(SnapshotTest, EveryStrategyKindBuildsAndAnswers) {
  Histogram data = TestData(48);  // not a power of two: exercises padding
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    SnapshotOptions options;
    options.strategy = kind;
    options.epsilon = 2.0;
    options.shards = 2;
    auto snap = MustBuild(data, options, 1, 5);
    double full = snap->RangeCount(Interval(0, 47));
    EXPECT_GE(full, 0.0) << StrategyKindName(kind);
    // At eps = 2 the full-domain count lands near the truth.
    EXPECT_NEAR(full, data.Total(), 0.5 * data.Total())
        << StrategyKindName(kind);
  }
}

TEST(SnapshotTest, BatchedAnswersMatchScalarAnswers) {
  Histogram data = TestData(50);
  SnapshotOptions options;
  options.shards = 3;
  auto snap = MustBuild(data, options, 1, 13);

  std::vector<Interval> workload;
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    std::int64_t lo = rng.NextInt(0, 49);
    workload.emplace_back(lo, rng.NextInt(lo, 49));
  }
  std::vector<double> batched(workload.size());
  snap->RangeCountsInto(workload.data(), workload.size(), batched.data());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(batched[i], snap->RangeCount(workload[i])) << i;
  }
}

TEST(SnapshotTest, ParallelBuildIsBitIdenticalToSequential) {
  // The acceptance property for parallel Snapshot::Build: the release is
  // a pure function of (data, options, rng) — thread count changes only
  // wall clock. Shard RNG streams are forked in shard order before the
  // fan-out, so every strategy must reproduce bit for bit.
  Histogram data = TestData(1 << 12);
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    SnapshotOptions options;
    options.strategy = kind;
    options.shards = 16;
    options.epsilon = 0.5;
    options.build_threads = 1;
    auto sequential = MustBuild(data, options, 1, 77);
    options.build_threads = 8;
    auto parallel = MustBuild(data, options, 1, 77);

    Rng probe_rng(3);
    for (int i = 0; i < 200; ++i) {
      std::int64_t lo = probe_rng.NextInt(0, (1 << 12) - 1);
      Interval q(lo, probe_rng.NextInt(lo, (1 << 12) - 1));
      EXPECT_EQ(sequential->RangeCount(q), parallel->RangeCount(q))
          << StrategyKindName(kind) << " " << q.ToString();
    }
  }
}

TEST(SnapshotTest, BuildRejectsUnresolvedAutoStrategy) {
  Histogram data = TestData(16);
  Rng rng(1);
  SnapshotOptions options;
  options.strategy = StrategyKind::kAuto;
  auto built = Snapshot::Build(data, options, 1, &rng);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("planner"), std::string::npos);
}

TEST(SnapshotTest, StrategyKindNamesRoundTrip) {
  for (StrategyKind kind :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    auto parsed = ParseStrategyKind(StrategyKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  // Display names from the paper also parse.
  EXPECT_TRUE(ParseStrategyKind("H-bar").ok());
  EXPECT_TRUE(ParseStrategyKind("L~").ok());
  EXPECT_TRUE(ParseStrategyKind("H~").ok());
  EXPECT_FALSE(ParseStrategyKind("fourier").ok());
  // The planner sentinel round-trips too.
  auto auto_kind = ParseStrategyKind("auto");
  ASSERT_TRUE(auto_kind.ok());
  EXPECT_EQ(auto_kind.value(), StrategyKind::kAuto);
  EXPECT_STREQ(StrategyKindName(StrategyKind::kAuto), "auto");
}

TEST(SnapshotDeathTest, RejectsOutOfDomainRange) {
  auto snap = MustBuild(TestData(16), SnapshotOptions(), 1, 1);
  EXPECT_DEATH(snap->RangeCount(Interval(0, 16)), "domain");
}

}  // namespace
}  // namespace dphist
