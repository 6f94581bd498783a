#include "planner/workload_profile.h"

#include <gtest/gtest.h>

namespace dphist::planner {
namespace {

TEST(WorkloadProfileTest, AccumulatesQueriesByLength) {
  WorkloadProfile profile(64);
  EXPECT_TRUE(profile.empty());
  profile.AddQuery(Interval(0, 0));
  profile.AddQuery(Interval(63, 63));
  profile.AddQuery(Interval(10, 19));
  profile.AddLength(10, 2.5);
  EXPECT_FALSE(profile.empty());
  EXPECT_DOUBLE_EQ(profile.total_weight(), 5.5);
  ASSERT_EQ(profile.length_weights().size(), 2u);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(1), 2.0);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(10), 3.5);
}

TEST(WorkloadProfileTest, GeometricSweepCoversPowersOfTwoAndDomain) {
  WorkloadProfile profile = WorkloadProfile::GeometricSweep(48);
  // 1, 2, 4, 8, 16, 32, 48.
  ASSERT_EQ(profile.length_weights().size(), 7u);
  EXPECT_EQ(profile.length_weights().count(32), 1u);
  EXPECT_EQ(profile.length_weights().count(48), 1u);
  EXPECT_DOUBLE_EQ(profile.total_weight(), 7.0);

  // A power-of-two domain does not double-count the full length.
  WorkloadProfile pow2 = WorkloadProfile::GeometricSweep(64);
  EXPECT_EQ(pow2.length_weights().size(), 7u);  // 1..64
  EXPECT_DOUBLE_EQ(pow2.length_weights().at(64), 1.0);
}

TEST(WorkloadProfileDeathTest, RejectsQueriesOutsideTheDomain) {
  WorkloadProfile profile(16);
  EXPECT_DEATH(profile.AddQuery(Interval(10, 16)), "domain");
  EXPECT_DEATH(profile.AddLength(17), "length");
  EXPECT_DEATH(profile.AddLength(4, 0.0), "weight");
}

TEST(QueryReservoirTest, KeepsEverythingWhileUnderCapacity) {
  QueryReservoir reservoir(8);
  for (std::int64_t i = 0; i < 5; ++i) {
    reservoir.Observe(Interval(i, i + 2));
  }
  EXPECT_EQ(reservoir.seen(), 5u);
  ASSERT_EQ(reservoir.sample().size(), 5u);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reservoir.sample()[static_cast<std::size_t>(i)].lo(), i);
  }
  // Under capacity the contributed weights are exactly 1 per query.
  WorkloadProfile profile(64);
  reservoir.AddTo(&profile);
  EXPECT_DOUBLE_EQ(profile.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(3), 5.0);
}

TEST(QueryReservoirTest, BoundedAndDeterministicBeyondCapacity) {
  QueryReservoir a(16);
  QueryReservoir b(16);
  for (std::int64_t i = 0; i < 1000; ++i) {
    a.Observe(Interval(i % 50, i % 50));
    b.Observe(Interval(i % 50, i % 50));
  }
  EXPECT_EQ(a.seen(), 1000u);
  ASSERT_EQ(a.sample().size(), 16u);
  // The replacement stream is a pure function of the running count, so
  // the same observation sequence always yields the same sample.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.sample()[i].lo(), b.sample()[i].lo());
  }
  // AddTo scales the retained weights back up to the observed count.
  WorkloadProfile profile(64);
  a.AddTo(&profile);
  EXPECT_DOUBLE_EQ(profile.total_weight(), 1000.0);
}

TEST(QueryReservoirTest, ZeroCapacityObservesWithoutSampling) {
  QueryReservoir reservoir(0);
  reservoir.Observe(Interval(0, 3));
  EXPECT_EQ(reservoir.seen(), 1u);
  EXPECT_TRUE(reservoir.empty());
  WorkloadProfile profile(8);
  reservoir.AddTo(&profile);  // nothing sampled, nothing added
  EXPECT_TRUE(profile.empty());
}

}  // namespace
}  // namespace dphist::planner
