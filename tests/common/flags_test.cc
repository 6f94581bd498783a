#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace dphist {
namespace {

Flags ParseArgs(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  Flags f = ParseArgs({"prog", "--trials=50", "--epsilon=0.1"});
  EXPECT_EQ(f.GetInt("trials", 0), 50);
  EXPECT_DOUBLE_EQ(f.GetDouble("epsilon", 0.0), 0.1);
}

TEST(FlagsTest, SpaceForm) {
  Flags f = ParseArgs({"prog", "--trials", "25"});
  EXPECT_EQ(f.GetInt("trials", 0), 25);
}

TEST(FlagsTest, BareBooleanFlag) {
  Flags f = ParseArgs({"prog", "--verbose"});
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("absent", false));
  EXPECT_TRUE(f.GetBool("absent", true));
}

TEST(FlagsTest, ExplicitFalse) {
  Flags f = ParseArgs({"prog", "--round=false"});
  EXPECT_FALSE(f.GetBool("round", true));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  Flags f = ParseArgs({"prog"});
  EXPECT_EQ(f.GetInt("trials", 42), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("epsilon", 1.5), 1.5);
  EXPECT_EQ(f.GetString("name", "default"), "default");
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = ParseArgs({"prog", "input.csv", "--trials=5", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "output.csv");
  EXPECT_EQ(f.program(), "prog");
}

TEST(FlagsTest, EnvironmentFallback) {
  ::setenv("DPHIST_TEST_FLAG_ENV", "77", 1);
  Flags f = ParseArgs({"prog"});
  EXPECT_EQ(f.GetInt("trials", 1, "DPHIST_TEST_FLAG_ENV"), 77);
  // Explicit flag wins over the environment.
  Flags g = ParseArgs({"prog", "--trials=5"});
  EXPECT_EQ(g.GetInt("trials", 1, "DPHIST_TEST_FLAG_ENV"), 5);
  ::unsetenv("DPHIST_TEST_FLAG_ENV");
}

TEST(FlagsTest, NumbersMustParseWhole) {
  Flags f = ParseArgs({"prog", "--listen", "abc", "--epsilon", "1x",
                       "--shards=2x", "--lo", "-3", "--scale", "+2.5e-1"});
  for (const char* name : {"listen", "shards"}) {
    Result<std::int64_t> value = f.ParseInt(name, 0);
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(std::string("--") + name + ":"),
              std::string::npos)
        << value.status().message();
  }
  Result<double> epsilon = f.ParseDouble("epsilon", 0.0);
  ASSERT_FALSE(epsilon.ok());
  EXPECT_NE(epsilon.status().message().find("--epsilon: \"1x\""),
            std::string::npos)
      << epsilon.status().message();
  EXPECT_EQ(f.ParseInt("lo", 0).value(), -3);
  EXPECT_DOUBLE_EQ(f.ParseDouble("scale", 0.0).value(), 0.25);
  EXPECT_EQ(f.ParseInt("absent", 9).value(), 9);
}

TEST(FlagsTest, OutOfRangeNumbersAreRefused) {
  Flags f = ParseArgs({"prog", "--seed", "99999999999999999999", "--min",
                       "-9223372036854775808", "--big", "1e999", "--tiny",
                       "1e-400", "--inf", "inf", "--nan", "nan"});
  EXPECT_FALSE(f.ParseInt("seed", 0).ok());
  EXPECT_EQ(f.ParseInt("min", 0).value(), INT64_MIN);
  for (const char* name : {"big", "tiny", "inf", "nan"}) {
    EXPECT_FALSE(f.ParseDouble(name, 1.0).ok()) << name;
  }
}

TEST(FlagsTest, EnvironmentValuesAreCheckedToo) {
  ::setenv("DPHIST_TEST_FLAG_ENV", "7x", 1);
  Flags f = ParseArgs({"prog"});
  Result<std::int64_t> trials = f.ParseInt("trials", 1, "DPHIST_TEST_FLAG_ENV");
  ::unsetenv("DPHIST_TEST_FLAG_ENV");
  ASSERT_FALSE(trials.ok());
  EXPECT_NE(trials.status().message().find(
                "--trials (from DPHIST_TEST_FLAG_ENV): \"7x\""),
            std::string::npos)
      << trials.status().message();
}

TEST(FlagsDeathTest, GetIntAbortsOnAMalformedValue) {
  Flags f = ParseArgs({"prog", "--trials", "5x", "--epsilon", "0.1y"});
  EXPECT_DEATH(f.GetInt("trials", 1), "--trials: \"5x\"");
  EXPECT_DEATH(f.GetDouble("epsilon", 1.0), "--epsilon: \"0.1y\"");
}

TEST(FlagsTest, FlagFollowedByFlagKeepsBoth) {
  Flags f = ParseArgs({"prog", "--a", "--b=2"});
  EXPECT_TRUE(f.Has("a"));
  EXPECT_EQ(f.GetInt("b", 0), 2);
}

}  // namespace
}  // namespace dphist
