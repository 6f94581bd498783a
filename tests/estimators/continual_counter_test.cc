#include "paper/estimators/continual_counter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/laplace.h"
#include "paper/common/statistics.h"

namespace dphist {
namespace {

TEST(ContinualCounterTest, TermCountIsPopcount) {
  EXPECT_EQ(ContinualCounter::TermCount(1), 1);
  EXPECT_EQ(ContinualCounter::TermCount(2), 1);
  EXPECT_EQ(ContinualCounter::TermCount(3), 2);
  EXPECT_EQ(ContinualCounter::TermCount(7), 3);
  EXPECT_EQ(ContinualCounter::TermCount(8), 1);
  EXPECT_EQ(ContinualCounter::TermCount(255), 8);
}

TEST(ContinualCounterTest, NoiseScaleIsHeightOverEpsilon) {
  Rng rng(1);
  ContinualCounter counter(64, 0.5, rng);  // height 7
  EXPECT_DOUBLE_EQ(counter.noise_scale(), 7.0 / 0.5);
  EXPECT_EQ(counter.horizon(), 64);
}

TEST(ContinualCounterTest, ReleasesAreRepeatable) {
  // Proposition 2 in streaming form: re-asking a prefix returns the SAME
  // value — no fresh randomness per query.
  Rng rng(2);
  ContinualCounter counter(16, 1.0, rng);
  for (int t = 0; t < 10; ++t) counter.Observe(3.0);
  double first = counter.PrefixEstimate(7);
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_DOUBLE_EQ(counter.PrefixEstimate(7), first);
  }
}

TEST(ContinualCounterTest, EarlierPrefixesUnchangedByLaterArrivals) {
  // Once released, history must not be rewritten by new observations.
  Rng rng(3);
  ContinualCounter counter(32, 1.0, rng);
  for (int t = 0; t < 8; ++t) counter.Observe(1.0);
  double at8 = counter.PrefixEstimate(8);
  for (int t = 8; t < 32; ++t) counter.Observe(5.0);
  EXPECT_DOUBLE_EQ(counter.PrefixEstimate(8), at8);
}

TEST(ContinualCounterTest, UnbiasedRunningTotals) {
  RunningStat at_13, at_64;
  for (int trial = 0; trial < 4000; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 7 + 1);
    ContinualCounter counter(64, 1.0, rng);
    for (int t = 0; t < 64; ++t) counter.Observe(2.0);
    at_13.Add(counter.PrefixEstimate(13));
    at_64.Add(counter.PrefixEstimate(64));
  }
  EXPECT_NEAR(at_13.Mean(), 26.0, 1.5);
  EXPECT_NEAR(at_64.Mean(), 128.0, 1.5);
}

TEST(ContinualCounterTest, ErrorBoundedByTermCountTimesNodeVariance) {
  // Var(prefix t) = popcount(t) * 2 * (height/eps)^2 exactly.
  const std::int64_t horizon = 64;
  const double eps = 1.0;
  const double node_var = 2.0 * 49.0;  // height 7
  for (std::int64_t t : {std::int64_t{7}, std::int64_t{32},
                         std::int64_t{63}}) {
    RunningStat stat;
    for (int trial = 0; trial < 6000; ++trial) {
      Rng rng(static_cast<std::uint64_t>(trial) * 13 + 5);
      ContinualCounter counter(horizon, eps, rng);
      for (std::int64_t s = 0; s < horizon; ++s) counter.Observe(0.0);
      stat.Add(counter.PrefixEstimate(t));
    }
    double expected_var =
        static_cast<double>(ContinualCounter::TermCount(t)) * node_var;
    EXPECT_NEAR(stat.Variance(), expected_var, expected_var * 0.12)
        << "t=" << t;
  }
}

TEST(ContinualCounterTest, BeatsNaivePerStepNoiseAtLateTimes) {
  // The naive eps-DP counter splits eps across T releases (or adds fresh
  // Lap(T/eps)-scale noise); its error at time t grows ~ t. The binary
  // mechanism's error is poly-log and essentially flat.
  const std::int64_t horizon = 256;
  const double eps = 1.0;
  RunningStat binary_err, naive_err;
  for (int trial = 0; trial < 500; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 31 + 9);
    ContinualCounter counter(horizon, eps, rng);
    // Naive: every per-step count gets Lap(1/eps') noise with
    // eps' = eps / horizon (each item appears in ALL later prefixes, so
    // the budget must cover every release).
    LaplaceDistribution naive_noise(static_cast<double>(horizon) / eps);
    double naive_prefix = 0.0;
    for (std::int64_t t = 0; t < horizon; ++t) {
      counter.Observe(1.0);
      naive_prefix += 1.0 + naive_noise.Sample(&rng);
    }
    double d_binary = counter.RunningTotal() - 256.0;
    double d_naive = naive_prefix - 256.0;
    binary_err.Add(d_binary * d_binary);
    naive_err.Add(d_naive * d_naive);
  }
  EXPECT_LT(binary_err.Mean() * 50.0, naive_err.Mean());
}

TEST(ContinualCounterTest, NonPowerOfTwoHorizon) {
  Rng rng(4);
  ContinualCounter counter(100, 1.0, rng);
  for (int t = 0; t < 100; ++t) counter.Observe(1.0);
  EXPECT_EQ(counter.steps(), 100);
  EXPECT_NEAR(counter.RunningTotal(), 100.0, 120.0);
}

TEST(ContinualCounterTest, RunningTotalBeforeAnyObservation) {
  Rng rng(5);
  ContinualCounter counter(8, 1.0, rng);
  EXPECT_DOUBLE_EQ(counter.RunningTotal(), 0.0);
}

TEST(ContinualCounterDeathTest, GuardsMisuse) {
  Rng rng(6);
  ContinualCounter counter(4, 1.0, rng);
  EXPECT_DEATH(counter.PrefixEstimate(1), "within the observed stream");
  counter.Observe(1.0);
  EXPECT_DEATH(counter.PrefixEstimate(2), "within the observed stream");
  counter.Observe(1.0);
  counter.Observe(1.0);
  counter.Observe(1.0);
  EXPECT_DEATH(counter.Observe(1.0), "exceeded the horizon");
}

TEST(ContinualCounterTest, CreateValidatesInsteadOfAborting) {
  Rng rng(4);
  EXPECT_FALSE(ContinualCounter::Create(0, 1.0, rng).ok());
  EXPECT_FALSE(ContinualCounter::Create(-3, 1.0, rng).ok());
  EXPECT_FALSE(ContinualCounter::Create(16, 0.0, rng).ok());
  EXPECT_FALSE(ContinualCounter::Create(16, -0.5, rng).ok());
  auto counter = ContinualCounter::Create(16, 1.0, rng);
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(counter.value().horizon(), 16);
}

}  // namespace
}  // namespace dphist
