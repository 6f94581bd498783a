#include "planner/workload_profile.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>

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

TEST(WorkloadProfileTest, RestoreRefusesNonFiniteValues) {
  // Restore reads a state directory's bytes after their CRC passes. A
  // NaN or infinite weight, or non-finite heat, would give every plan
  // over the profile a mean_var of nan.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::array<double, WorkloadProfile::kHeatBins> cold{};
  ASSERT_TRUE(WorkloadProfile::Restore(64, {{4, 1.0}}, cold).ok());
  for (const double weight : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(weight);
    EXPECT_FALSE(WorkloadProfile::Restore(64, {{4, weight}}, cold).ok());
  }
  for (const double bin : {kNan, kInf}) {
    SCOPED_TRACE(bin);
    std::array<double, WorkloadProfile::kHeatBins> heat{};
    heat[3] = bin;
    EXPECT_FALSE(WorkloadProfile::Restore(64, {{4, 1.0}}, heat).ok());
  }
  // Finite values whose sum overflows are refused too.
  EXPECT_FALSE(
      WorkloadProfile::Restore(64, {{4, 1e308}, {8, 1e308}}, cold).ok());
}

}  // namespace
}  // namespace dphist::planner
