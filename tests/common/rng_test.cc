#include "common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace dphist {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(123);
  Rng b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextDouble() == b.NextDouble()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextOpenDoubleNeverZero) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextOpenDouble(), 0.0);
  }
}

TEST(RngTest, NextUniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.NextUniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInt(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All values hit with high probability.
}

TEST(RngTest, NextIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.NextInt(7, 7), 7);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(6);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(7);
  const double mean = 4.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextPoisson(mean));
  EXPECT_NEAR(sum / n, mean, 0.1);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextPoisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequencyMatches) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliDegenerateProbabilities) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ForkedStreamsDecorrelate) {
  Rng parent(11);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.NextDouble() == child2.NextDouble()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsDeterministicGivenParentSeed) {
  Rng parent_a(12);
  Rng parent_b(12);
  Rng child_a = parent_a.Fork();
  Rng child_b = parent_b.Fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(child_a.NextDouble(), child_b.NextDouble());
  }
}

// The edges of the seed space, the CLI's default seed and Rng's.
constexpr std::uint64_t kEquivalenceSeeds[] = {0, 1, 42, 0x5eed5eed5eed5eedULL,
                                               ~std::uint64_t{0}};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(RngTest, EngineEmitsTheStandardMt19937_64Stream) {
  for (const std::uint64_t seed : kEquivalenceSeeds) {
    std::mt19937_64 reference(seed);
    Rng rng(seed);
    // Six state regenerations and a few words into the seventh.
    for (int i = 0; i < 6 * 312 + 7; ++i) {
      ASSERT_EQ(rng.engine()(), reference())
          << "seed " << seed << " word " << i;
    }
    // Fork seeds the child from the parent's next two words.
    Rng child = rng.Fork();
    const std::uint64_t a = reference();
    const std::uint64_t b = reference();
    std::mt19937_64 child_reference(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 5 * 312 + 1; ++i) {
      ASSERT_EQ(child.engine()(), child_reference())
          << "seed " << seed << " child word " << i;
      ASSERT_EQ(rng.engine()(), reference())
          << "seed " << seed << " parent word " << i;
    }
  }
}

TEST(RngTest, DrawsEqualTheStandardDistributionsOverTheStandardEngine) {
  for (const std::uint64_t seed : kEquivalenceSeeds) {
    std::mt19937_64 reference(seed);
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(Bits(rng.NextDouble()),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(
                    reference)));
      double open;
      do {
        open = std::uniform_real_distribution<double>(0.0, 1.0)(reference);
      } while (open <= 0.0);
      ASSERT_EQ(Bits(rng.NextOpenDouble()), Bits(open));
      ASSERT_EQ(Bits(rng.NextUniform(-5.0, 3.0)),
                Bits(std::uniform_real_distribution<double>(-5.0, 3.0)(
                    reference)));
      ASSERT_EQ(rng.NextInt(-3, 1000),
                std::uniform_int_distribution<std::int64_t>(-3, 1000)(
                    reference));
      ASSERT_EQ(Bits(rng.NextGaussian()),
                Bits(std::normal_distribution<double>(0.0, 1.0)(reference)));
      ASSERT_EQ(rng.NextPoisson(4.5),
                std::poisson_distribution<std::int64_t>(4.5)(reference));
      ASSERT_EQ(rng.NextBernoulli(0.3),
                std::bernoulli_distribution(0.3)(reference));
    }
    EXPECT_EQ(rng.engine()(), reference()) << "seed " << seed;
  }
}

/// A generator that returns one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  result_type word;
};

TEST(RngTest, UnitDoubleFromWordIsGenerateCanonical) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo60 = std::uint64_t{1} << 60;
  // 2^60 + 2^7 and 2^60 + 3 * 2^7 are ties that round to even, down and
  // up; 2^64 - 1025 is the last word that rounds below 1.0 (to 1 - 2^-53)
  // and 2^64 - 1024 the first that rounds to 1.0 and is clamped there.
  const std::uint64_t edges[] = {0,
                                 1,
                                 kTwo53 - 1,
                                 kTwo53 + 1,
                                 kTwo60 + (1 << 7),
                                 kTwo60 + 3 * (1 << 7),
                                 std::uint64_t{1} << 63,
                                 kTop - 1024,
                                 kTop - 1023,
                                 kTop};
  for (const std::uint64_t word : edges) {
    FixedWord generator{word};
    EXPECT_EQ(Bits(UnitDoubleFromWord(word)),
              Bits(std::generate_canonical<double, 53>(generator)))
        << std::hex << word;
  }
  EXPECT_EQ(UnitDoubleFromWord(kTop - 1024), std::nextafter(1.0, 0.0));
  EXPECT_EQ(UnitDoubleFromWord(kTop - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(UnitDoubleFromWord(kTop), std::nextafter(1.0, 0.0));
  std::mt19937_64 words(3);
  for (int i = 0; i < 100000; ++i) {
    FixedWord generator{words()};
    ASSERT_EQ(Bits(UnitDoubleFromWord(generator.word)),
              Bits(std::generate_canonical<double, 53>(generator)))
        << std::hex << generator.word;
  }
}

/// The untempered state word that MT19937-64's tempering maps to `word`.
std::uint64_t Untemper(std::uint64_t word) {
  std::uint64_t y = word ^ (word >> 43);
  y ^= (y << 37) & 0xfff7eee000000000ULL;
  std::uint64_t x = y;
  for (int i = 0; i < 4; ++i) x = y ^ ((x << 17) & 0x71d67fffeda60000ULL);
  y = x;
  for (int i = 0; i < 3; ++i) x = y ^ ((x >> 29) & 0x5555555555555555ULL);
  return x;
}

TEST(RngTest, BlockFillReplaysRunsHoldingZeroOrNearOneWords) {
  // 0 is skipped and 2^64 - 1024 and up are clamped below 1.0, so a run
  // holding one goes word by word; 1 and 2^64 - 1025 stay on the block
  // path. Fills start at a state boundary and mid-block, and run into the
  // next regeneration.
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::uint64_t edges[] = {0, 1, kTop - 1024, kTop - 1023, kTop};
  for (const std::uint64_t edge : edges) {
    for (const std::size_t position : {0, 5, 311}) {
      for (const std::size_t start : {0, 4}) {
        std::mt19937_64 filler(position);
        std::uint64_t state[MersenneTwister64::kStateWords];
        std::uint64_t words[MersenneTwister64::kStateWords];
        for (std::size_t i = 0; i < MersenneTwister64::kStateWords; ++i) {
          words[i] = i == position ? edge : filler();
          state[i] = Untemper(words[i]);
        }
        MersenneTwister64 check(state);
        for (const std::uint64_t word : words) ASSERT_EQ(check(), word);

        MersenneTwister64 block(state);
        MersenneTwister64 single(state);
        std::vector<double> filled(400);
        block.FillOpenUnit(filled.data(), start);
        block.FillOpenUnit(filled.data() + start, filled.size() - start);
        for (std::size_t i = 0; i < filled.size(); ++i) {
          ASSERT_EQ(Bits(filled[i]), Bits(single.NextOpenUnit()))
              << std::hex << edge << std::dec << " at " << position
              << ", value " << i;
          ASSERT_GT(filled[i], 0.0);
          ASSERT_LT(filled[i], 1.0);
        }
        EXPECT_EQ(block(), single());
      }
    }
  }
}

}  // namespace
}  // namespace dphist
