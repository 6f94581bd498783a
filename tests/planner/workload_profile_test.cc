#include "planner/workload_profile.h"

#include <gtest/gtest.h>

#include <limits>

namespace dphist::planner {
namespace {

TEST(WorkloadProfileTest, AccumulatesQueriesByLength) {
  WorkloadProfile profile(64);
  EXPECT_TRUE(profile.empty());
  profile.AddLength(1);
  profile.AddLength(1);
  profile.AddLength(10);
  profile.AddLength(10, 2.5);
  EXPECT_FALSE(profile.empty());
  EXPECT_DOUBLE_EQ(profile.total_weight(), 5.5);
  ASSERT_EQ(profile.length_weights().size(), 2u);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(1), 2.0);
  EXPECT_DOUBLE_EQ(profile.length_weights().at(10), 3.5);
}

TEST(WorkloadProfileTest, EachBucketIsItsWeightedMeanLength) {
  WorkloadProfile profile(1 << 20);
  // Lengths below 16 are their own buckets.
  profile.AddLength(8);
  profile.AddLength(15, 3.0);
  // Bucket [16, 17]: (16 * 1 + 17 * 3) / 4 = 16.75, costed as 17.
  profile.AddLength(16);
  profile.AddLength(17, 3.0);
  // Octave [512, 1023] has buckets 64 wide and [1024, 2047] 128 wide:
  // 1000..1023 has mean 1011.5, rounded away from zero to 1012, and
  // 1024..1999 fills seven buckets and 80 lengths of the eighth.
  for (std::int64_t length = 1000; length < 2000; ++length) {
    profile.AddLength(length);
  }
  const auto lengths = profile.length_weights();
  ASSERT_EQ(lengths.size(), 12u);
  EXPECT_DOUBLE_EQ(lengths.at(8), 1.0);
  EXPECT_DOUBLE_EQ(lengths.at(15), 3.0);
  EXPECT_DOUBLE_EQ(lengths.at(17), 4.0);
  EXPECT_DOUBLE_EQ(lengths.at(1012), 24.0);
  EXPECT_DOUBLE_EQ(lengths.at(1088), 128.0);  // [1024, 1151]
  EXPECT_DOUBLE_EQ(lengths.at(1960), 80.0);   // [1920, 1999]
  EXPECT_DOUBLE_EQ(profile.total_weight(), 1008.0);

  // However many distinct lengths go in, at most one per bucket comes
  // out.
  WorkloadProfile wide(1 << 16);
  for (std::int64_t length = 1; length <= 20000; ++length) {
    wide.AddLength(length);
  }
  EXPECT_EQ(wide.length_weights().size(), 97u);

  // Past 2^53 a length is not exact in a double; its mean stays in the
  // domain.
  for (const std::int64_t huge : {(std::int64_t{1} << 60) - 1,
                                  std::numeric_limits<std::int64_t>::max()}) {
    WorkloadProfile at_the_top(huge);
    at_the_top.AddLength(huge);
    EXPECT_EQ(at_the_top.length_weights().begin()->first, huge);
  }
}

TEST(WorkloadProfileTest, OctaveMidpointsAreTheServiceRepresentatives) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(WorkloadProfile::OctaveOf(1), 0u);
  EXPECT_EQ(WorkloadProfile::OctaveOf(5), 2u);
  EXPECT_EQ(WorkloadProfile::OctaveOf(kMax), WorkloadProfile::kOctaves - 1);
  EXPECT_EQ(WorkloadProfile::OctaveMidpoint(0, 64), 1);
  EXPECT_EQ(WorkloadProfile::OctaveMidpoint(2, 64), 5);   // [4, 7]
  EXPECT_EQ(WorkloadProfile::OctaveMidpoint(5, 40), 40);  // [32, 63]
  EXPECT_EQ(WorkloadProfile::OctaveMidpoint(62, kMax),
            (std::int64_t{3} << 61) - 1);
  // A midpoint is its bucket's only length, so it is costed as itself.
  WorkloadProfile profile(1 << 20);
  for (std::size_t octave = 0; octave < 20; ++octave) {
    profile.AddLength(WorkloadProfile::OctaveMidpoint(octave, 1 << 20), 3.0);
  }
  ASSERT_EQ(profile.length_weights().size(), 20u);
  for (std::size_t octave = 0; octave < 20; ++octave) {
    EXPECT_DOUBLE_EQ(profile.length_weights().at(
                         WorkloadProfile::OctaveMidpoint(octave, 1 << 20)),
                     3.0);
  }
}

TEST(WorkloadProfileTest, GeometricSweepCoversPowersOfTwoAndDomain) {
  WorkloadProfile profile = WorkloadProfile::GeometricSweep(48);
  // 1, 2, 4, 8, 16, 32, 48.
  ASSERT_EQ(profile.length_weights().size(), 7u);
  EXPECT_EQ(profile.length_weights().count(32), 1u);
  EXPECT_EQ(profile.length_weights().count(48), 1u);
  EXPECT_DOUBLE_EQ(profile.total_weight(), 7.0);

  // A domain less than 1/8 above a power of two shares its bucket: 32
  // and 35 are costed together at 34 (33.5, rounded away from zero).
  WorkloadProfile near = WorkloadProfile::GeometricSweep(35);
  ASSERT_EQ(near.length_weights().size(), 6u);
  EXPECT_DOUBLE_EQ(near.length_weights().at(34), 2.0);
  EXPECT_DOUBLE_EQ(near.total_weight(), 7.0);

  // A power-of-two domain does not double-count the full length.
  WorkloadProfile pow2 = WorkloadProfile::GeometricSweep(64);
  EXPECT_EQ(pow2.length_weights().size(), 7u);  // 1..64
  EXPECT_DOUBLE_EQ(pow2.length_weights().at(64), 1.0);
}

TEST(WorkloadProfileDeathTest, RejectsQueriesOutsideTheDomain) {
  WorkloadProfile profile(16);
  EXPECT_DEATH(profile.AddLength(17), "length");
  EXPECT_DEATH(profile.AddLength(4, 0.0), "weight");
}

TEST(WorkloadProfileTest, RestoreRefusesNonFiniteValues) {
  // Restore reads a state directory's bytes after their CRC passes. A
  // NaN or infinite weight would give every plan over the profile a
  // mean_var of nan.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(WorkloadProfile::Restore(64, {{4, 1.0}}).ok());
  for (const double weight : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(weight);
    EXPECT_FALSE(WorkloadProfile::Restore(64, {{4, weight}}).ok());
  }
  // Finite values whose sum overflows are refused too.
  EXPECT_FALSE(WorkloadProfile::Restore(64, {{4, 1e308}, {8, 1e308}}).ok());
  EXPECT_FALSE(WorkloadProfile::Restore(64, {{5, 1e308}}).ok());
}

TEST(WorkloadProfileTest, RestoreFoldsLengthsIntoTheirBuckets) {
  auto restored = WorkloadProfile::Restore(
      64, {{4, 1.0}, {16, 1.0}, {17, 3.0}, {40, 0.5}, {43, 0.5}});
  ASSERT_TRUE(restored.ok());
  const auto lengths = restored.value().length_weights();
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_DOUBLE_EQ(lengths.at(4), 1.0);
  EXPECT_DOUBLE_EQ(lengths.at(17), 4.0);  // (16 + 51) / 4 = 16.75
  EXPECT_DOUBLE_EQ(lengths.at(42), 1.0);  // [40, 43]: 41.5, away from 0
  EXPECT_DOUBLE_EQ(restored.value().total_weight(), 6.0);
  EXPECT_FALSE(WorkloadProfile::Restore(64, {{65, 1.0}}).ok());
  EXPECT_FALSE(WorkloadProfile::Restore(64, {{0, 1.0}}).ok());
  EXPECT_FALSE(WorkloadProfile::Restore(0, {}).ok());
}

}  // namespace
}  // namespace dphist::planner
