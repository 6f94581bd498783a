#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "engine/answer_engine.h"

namespace dphist {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(17);
  return Histogram::FromCounts(ZipfCounts(n, 1.3, 6 * n, &rng));
}

std::vector<Interval> ProbeWorkload(std::int64_t n, int count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Interval> workload;
  workload.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::int64_t lo = rng.NextInt(0, n - 1);
    workload.emplace_back(lo, rng.NextInt(lo, n - 1));
  }
  return workload;
}

TEST(QueryServiceTest, PublishAssignsIncreasingEpochs) {
  Histogram data = TestData(64);
  QueryService service;
  EXPECT_EQ(service.current_epoch(), 0u);
  EXPECT_EQ(service.snapshot(), nullptr);

  SnapshotOptions options;
  auto first = service.Publish(data, options, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()->epoch(), 1u);
  EXPECT_EQ(service.current_epoch(), 1u);

  options.epsilon = 0.5;
  auto second = service.Publish(data, options, 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()->epoch(), 2u);
  EXPECT_EQ(service.current_epoch(), 2u);
  EXPECT_DOUBLE_EQ(service.snapshot()->epsilon(), 0.5);
}

TEST(QueryServiceTest, FailedPublishLeavesCurrentSnapshotInPlace) {
  Histogram data = TestData(32);
  QueryService service;
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 1).ok());

  SnapshotOptions bad;
  bad.epsilon = -1.0;
  EXPECT_FALSE(service.Publish(data, bad, 2).ok());
  EXPECT_EQ(service.current_epoch(), 1u);

  // The next successful publish continues the epoch sequence without
  // consuming a number for the failure.
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 3).ok());
  EXPECT_EQ(service.current_epoch(), 2u);
}

TEST(QueryServiceTest, AnswersMatchTheSnapshotExactly) {
  Histogram data = TestData(100);
  QueryService service;
  SnapshotOptions options;
  options.shards = 4;
  auto snap = service.Publish(data, options, 9);
  ASSERT_TRUE(snap.ok());

  std::vector<Interval> workload = ProbeWorkload(100, 64, 5);
  std::vector<double> answers(workload.size());
  EXPECT_EQ(
      service.TryQueryBatch(workload.data(), workload.size(), answers.data())
          .value(),
      1u);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(answers[i], snap.value()->RangeCount(workload[i])) << i;
  }
}

TEST(QueryServiceTest, ObservedWorkloadTracksAnsweredLengths) {
  Histogram data = TestData(64);
  QueryService service;
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 1).ok());
  EXPECT_TRUE(service.ObservedWorkload(64).empty());

  std::vector<Interval> workload = {Interval(0, 0), Interval(5, 5),
                                    Interval(0, 41), Interval(10, 51)};
  std::vector<double> answers(workload.size());
  EXPECT_TRUE(
      service.TryQueryBatch(workload.data(), workload.size(), answers.data())
          .ok());

  planner::WorkloadProfile profile = service.ObservedWorkload(64);
  EXPECT_DOUBLE_EQ(profile.total_weight(), 4.0);
  // Lengths are counted per octave: two units land in [1,1]; the two
  // 42-length queries land in [32,63], reported at its midpoint 47.
  EXPECT_DOUBLE_EQ(profile.length_weights().at(1), 2.0);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(47), 2.0);

  // One batch over every bucket the domain has, [1,1] to [64,127], with
  // a different count in each: the batch's per-bucket counts land whole
  // once it is answered, on top of the first batch's.
  std::vector<Interval> spread;
  const std::int64_t lengths[] = {1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64};
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    for (std::size_t copy = 0; copy <= i % 3; ++copy) {
      spread.emplace_back(0, lengths[i] - 1);
    }
  }
  answers.resize(spread.size());
  ASSERT_TRUE(
      service.TryQueryBatch(spread.data(), spread.size(), answers.data())
          .ok());
  EXPECT_EQ(service.observed_query_count(), 4 + spread.size());
  profile = service.ObservedWorkload(64);
  EXPECT_DOUBLE_EQ(profile.total_weight(),
                   static_cast<double>(4 + spread.size()));
  // Bucket midpoints 1, 2, 5, 11, 23, 47 and (clamped to the domain) 64;
  // each bucket's count sums the copies of the lengths it holds, and
  // buckets 1 and 47 keep the first batch's two queries each.
  const std::map<std::int64_t, double> expected = {
      {1, 3.0}, {2, 5.0}, {5, 3.0}, {11, 4.0}, {23, 5.0}, {47, 5.0},
      {64, 3.0}};
  EXPECT_EQ(profile.length_weights().size(), expected.size());
  for (const auto& [length, weight] : expected) {
    EXPECT_DOUBLE_EQ(profile.length_weights().at(length), weight) << length;
  }
}

// The acceptance-criterion test: concurrent readers during repeated
// snapshot swaps must always see internally consistent single-epoch
// batches — every answer in a batch comes from the release whose epoch
// the batch reports, bit for bit.
TEST(QueryServiceTest, ConcurrentSwapsServeSingleEpochBatches) {
  const std::int64_t n = 96;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kHBar;
  options.shards = 2;
  constexpr std::uint64_t kEpochs = 10;

  // Expected answers per epoch: Publish below uses seed == epoch, so the
  // releases are reproducible here ahead of time.
  std::vector<Interval> workload = ProbeWorkload(n, 48, 31);
  std::map<std::uint64_t, std::vector<double>> expected;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    Rng rng(epoch);
    auto snap = Snapshot::Build(data, options, epoch, &rng);
    ASSERT_TRUE(snap.ok());
    std::vector<double> answers(workload.size());
    snap.value()->RangeCountsInto(workload.data(), workload.size(),
                                  answers.data());
    expected.emplace(epoch, std::move(answers));
  }

  QueryService service;
  ASSERT_TRUE(service.Publish(data, options, 1).ok());

  std::atomic<bool> done{false};
  std::atomic<int> mixed_batches{0};
  std::atomic<std::uint64_t> max_seen_epoch{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<double> answers(workload.size());
      auto run_batch = [&] {
        const std::uint64_t epoch =
            service
                .TryQueryBatch(workload.data(), workload.size(),
                               answers.data())
                .value();
        const std::vector<double>& want = expected.at(epoch);
        for (std::size_t i = 0; i < workload.size(); ++i) {
          if (answers[i] != want[i]) {
            mixed_batches.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        std::uint64_t seen = max_seen_epoch.load(std::memory_order_relaxed);
        while (epoch > seen &&
               !max_seen_epoch.compare_exchange_weak(
                   seen, epoch, std::memory_order_relaxed)) {
        }
      };
      while (!done.load(std::memory_order_acquire)) run_batch();
      // One guaranteed batch after the last publish, so every reader
      // observes the final epoch even under unlucky scheduling.
      run_batch();
    });
  }

  // Publisher: republish at shifting epsilons while the readers hammer.
  for (std::uint64_t epoch = 2; epoch <= kEpochs; ++epoch) {
    ASSERT_TRUE(service.Publish(data, options, epoch).ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mixed_batches.load(), 0);
  // The readers actually observed the republishing, not just epoch 1.
  EXPECT_GT(max_seen_epoch.load(), 1u);
  EXPECT_EQ(service.current_epoch(), kEpochs);
}

TEST(QueryServiceTest, OnlyPlannedReleasesReachTheEngine) {
  // A release with an answer plan answers every batch in one engine
  // pass; a walker release (H~, round+prune H-bar) sums each range's
  // decomposition nodes and never touches the engine. Either way every
  // answer, repeats included, is the snapshot's own, bit for bit.
  Histogram data = TestData(256);
  QueryService service;

  std::vector<Interval> queries = ProbeWorkload(256, 200, 5);
  for (std::int64_t i = 0; i < 32; ++i) queries.emplace_back(i, i);
  queries.emplace_back(0, 255);
  queries.emplace_back(60, 70);  // spans the 64-wide shards below
  struct Release {
    StrategyKind strategy;
    std::int64_t shards;
    bool section52;  // Section 5.2 rounding and pruning
    bool planned;
  };
  const Release releases[] = {{StrategyKind::kLTilde, 4, true, true},
                              {StrategyKind::kWavelet, 2, true, true},
                              {StrategyKind::kHBar, 4, false, true},
                              {StrategyKind::kHTilde, 4, true, false},
                              {StrategyKind::kHBar, 4, true, false}};
  std::uint64_t seed = 1;
  for (const Release& release : releases) {
    SCOPED_TRACE(StrategyKindName(release.strategy));
    SnapshotOptions options;
    options.strategy = release.strategy;
    options.shards = release.shards;
    // Without Section 5.2 post-processing H-bar stays consistent and
    // prefix-served; L~ and wavelet are planned in their default config.
    options.round_to_nonnegative_integers = release.section52;
    options.prune_nonpositive_subtrees = release.section52;
    auto published = service.Publish(data, options, seed++);
    ASSERT_TRUE(published.ok());
    const Snapshot& snap = *published.value();
    ASSERT_EQ(snap.answer_plan() != nullptr, release.planned);

    std::vector<double> expected(queries.size());
    snap.RangeCountsInto(queries.data(), queries.size(), expected.data());
    const std::uint64_t engine_before =
        engine::GlobalEngineCounters().total_queries();
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<double> answers(queries.size());
      EXPECT_TRUE(
          service.TryQueryBatch(queries.data(), queries.size(), answers.data())
              .ok());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(answers[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "pass " << pass << " query " << i;
      }
    }
    EXPECT_EQ(engine::GlobalEngineCounters().total_queries() - engine_before,
              release.planned ? 2 * queries.size() : 0u);
  }
}

TEST(QueryServiceTest, ObservedQueryCountSumsAllTraffic) {
  Histogram data = TestData(64);
  QueryService service;
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 1).ok());
  EXPECT_EQ(service.observed_query_count(), 0u);
  std::vector<Interval> workload = ProbeWorkload(64, 37, 3);
  std::vector<double> answers(workload.size());
  EXPECT_TRUE(
      service.TryQueryBatch(workload.data(), workload.size(), answers.data())
          .ok());
  EXPECT_EQ(service.observed_query_count(), 37u);
  double out = 0.0;
  const Interval range(0, 5);
  EXPECT_TRUE(service.TryQueryBatch(&range, 1, &out).ok());
  EXPECT_EQ(service.observed_query_count(), 38u);
}

}  // namespace
}  // namespace dphist
