#include "domain/histogram.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dphist {
namespace {

TEST(HistogramTest, ZeroConstruction) {
  Histogram h(std::vector<double>(4, 0.0), "src");
  EXPECT_EQ(h.size(), 4);
  EXPECT_DOUBLE_EQ(h.Total(), 0.0);
  EXPECT_EQ(h.domain().attribute(), "src");
}

TEST(HistogramTest, FromCountsAndAccessors) {
  // The running example of Fig. 2: L(I) = <2, 0, 10, 2>.
  Histogram h = Histogram::FromCounts({2, 0, 10, 2}, "src");
  EXPECT_EQ(h.size(), 4);
  EXPECT_DOUBLE_EQ(h.At(0), 2.0);
  EXPECT_DOUBLE_EQ(h.At(2), 10.0);
  EXPECT_DOUBLE_EQ(h.Total(), 14.0);
}

TEST(HistogramTest, RangeCountsMatchPaperExample) {
  Histogram h = Histogram::FromCounts({2, 0, 10, 2}, "src");
  // "the total number of packets is 14"
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 3)), 14.0);
  // "the number of packets from a source address matching prefix 01* is 12"
  EXPECT_DOUBLE_EQ(h.Count(Interval(2, 3)), 12.0);
  // "the counts from source address 010 is 10"
  EXPECT_DOUBLE_EQ(h.Count(Interval::Unit(2)), 10.0);
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 1)), 2.0);
}

TEST(HistogramTest, SetAndIncrementInvalidatePrefix) {
  Histogram h = Histogram::FromCounts({1, 1, 1});
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 2)), 3.0);
  h.Set(1, 5.0);
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 2)), 7.0);
  h.Increment(0);
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 2)), 8.0);
  h.Increment(2, 2.5);
  EXPECT_DOUBLE_EQ(h.Count(Interval(0, 2)), 10.5);
}

TEST(HistogramTest, ConcurrentFirstCountAfterMutationIsSafe) {
  // The thread-safety contract behind parallel Snapshot::Build: const
  // accessors need no caller-side ceremony. Mutate (invalidating the
  // eager prefix table), then race many first Count() calls — the
  // double-checked rebuild must give every thread the same answer.
  // Under ThreadSanitizer this is also a data-race probe.
  Histogram h = Histogram::FromCounts(std::vector<std::int64_t>(4096, 1));
  h.Increment(17, 3.0);  // prefix table now stale

  constexpr int kThreads = 8;
  std::vector<double> totals(kThreads, -1.0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &totals, t] {
      totals[static_cast<std::size_t>(t)] =
          h.Count(Interval(0, h.size() - 1)) + h.Count(Interval(17, 17));
    });
  }
  for (std::thread& w : workers) w.join();
  for (double total : totals) EXPECT_DOUBLE_EQ(total, 4099.0 + 4.0);
}

TEST(HistogramTest, CopyAndMoveCarryCountsAndPrefixState) {
  Histogram original = Histogram::FromCounts({1, 2, 3});
  Histogram copy = original;
  EXPECT_DOUBLE_EQ(copy.Count(Interval(0, 2)), 6.0);
  copy.Set(0, 10.0);
  // Copies are independent.
  EXPECT_DOUBLE_EQ(copy.Count(Interval(0, 2)), 15.0);
  EXPECT_DOUBLE_EQ(original.Count(Interval(0, 2)), 6.0);

  Histogram moved = std::move(copy);
  EXPECT_DOUBLE_EQ(moved.Count(Interval(0, 2)), 15.0);

  Histogram assigned = Histogram::FromCounts({9});
  assigned = original;
  EXPECT_DOUBLE_EQ(assigned.Count(Interval(0, 2)), 6.0);
  assigned = Histogram::FromCounts({4, 4});
  EXPECT_DOUBLE_EQ(assigned.Count(Interval(0, 1)), 8.0);
}

TEST(HistogramTest, SortedCountsIsUnattributedHistogram) {
  Histogram h = Histogram::FromCounts({2, 0, 10, 2});
  std::vector<double> sorted = h.SortedCounts();
  // S(I) = <0, 2, 2, 10> (Example 3).
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_DOUBLE_EQ(sorted[0], 0.0);
  EXPECT_DOUBLE_EQ(sorted[1], 2.0);
  EXPECT_DOUBLE_EQ(sorted[2], 2.0);
  EXPECT_DOUBLE_EQ(sorted[3], 10.0);
}

TEST(HistogramTest, RandomRangeAgreesWithNaiveSum) {
  Rng rng(21);
  std::vector<double> counts(257);
  for (double& c : counts) c = rng.NextUniform(0, 10);
  Histogram h(counts);
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t lo = rng.NextInt(0, 256);
    std::int64_t hi = rng.NextInt(lo, 256);
    double naive = 0.0;
    for (std::int64_t i = lo; i <= hi; ++i) naive += counts[i];
    EXPECT_NEAR(h.Count(Interval(lo, hi)), naive, 1e-9);
  }
}

TEST(HistogramDeathTest, RangeOutsideDomainRejected) {
  Histogram h = Histogram::FromCounts({1, 2, 3});
  EXPECT_DEATH(h.Count(Interval(0, 3)), "outside the domain");
  EXPECT_DEATH(h.At(3), "");
}

TEST(DomainTest, FullRangeAndContainment) {
  Domain d(8);
  EXPECT_EQ(d.FullRange(), Interval(0, 7));
  EXPECT_TRUE(d.ContainsInterval(Interval(0, 7)));
  EXPECT_FALSE(d.ContainsInterval(Interval(0, 8)));
}

}  // namespace
}  // namespace dphist
