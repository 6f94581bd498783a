#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <random>

#include "common/check.h"

namespace dphist {
namespace {

constexpr std::size_t kN = MersenneTwister64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr double kLargestBelowOne = 0x1.fffffffffffffp-1;

/// One step of the twist, with the conditional xor of the matrix as a mask
/// of the low bit.
std::uint64_t Twist(std::uint64_t word, std::uint64_t next,
                    std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

/// word * 2^-64 rounded once to nearest; 1.0 for words from 2^64 - 1024.
/// An unsigned-to-double conversion branches on the sign bit on x86-64;
/// here the word's high and low halves sit in the significands of 2^84 and
/// 2^52, the subtraction is exact and the addition rounds once, so the
/// result is the conversion's without the branch. Scaling by 2^-64 is
/// exact.
double ScaledWord(std::uint64_t word) {
  const double high =
      std::bit_cast<double>((word >> 32) | 0x4530000000000000ULL) -
      0x1.00000001p84;
  const double low =
      std::bit_cast<double>((word & 0xffffffffULL) | 0x4330000000000000ULL);
  return (high + low) * 0x1p-64;
}

}  // namespace

double UnitDoubleFromWord(std::uint64_t word) {
  return std::min(ScaledWord(word), kLargestBelowOne);
}

MersenneTwister64::MersenneTwister64(result_type seed) : next_(kN) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

MersenneTwister64::MersenneTwister64(const result_type (&state)[kStateWords])
    : next_(0) {
  std::copy(std::begin(state), std::end(state), state_);
}

void MersenneTwister64::Regenerate() {
  std::size_t k = 0;
  for (; k < kN - kM; ++k) {
    state_[k] = Twist(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = Twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = Twist(state_[kN - 1], state_[0], state_[kM - 1]);
  next_ = 0;
}

double MersenneTwister64::NextOpenUnit() {
  result_type word;
  do {
    word = (*this)();
  } while (word == 0);
  return UnitDoubleFromWord(word);
}

void MersenneTwister64::FillOpenUnit(double* out, std::size_t n) {
  while (n > 0) {
    if (next_ == kN) Regenerate();
    const std::size_t run = std::min(n, kN - next_);
    const result_type* words = state_ + next_;
    // Bit 63 of `outside` ends up set exactly when some word is 0 or at
    // least 2^64 - 1024, i.e. when word + 1024 (mod 2^64) is below 1025:
    // the subtraction borrows while the top bit is clear. Written without
    // a comparison, which SSE2 lacks for 64-bit integers, so the loop
    // vectorizes.
    result_type outside = 0;
    for (std::size_t i = 0; i < run; ++i) {
      const result_type word = Temper(words[i]);
      out[i] = ScaledWord(word);
      const result_type shifted = word + 1024;
      outside |= (shifted - 1025) & ~shifted;
    }
    if ((outside >> 63) == 0) {
      next_ += run;
    } else {
      // The run holds a zero word, which NextOpenUnit skips, or one that
      // rounds to 1.0, which it clamps: replay the run a word at a time.
      for (std::size_t i = 0; i < run; ++i) out[i] = NextOpenUnit();
    }
    out += run;
    n -= run;
  }
}

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double Rng::NextUniform(double lo, double hi) {
  DPHIST_CHECK(lo < hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  DPHIST_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::NextGaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

std::int64_t Rng::NextPoisson(double mean) {
  DPHIST_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

bool Rng::NextBernoulli(double p) {
  DPHIST_CHECK(p >= 0.0 && p <= 1.0);
  return std::bernoulli_distribution(p)(engine_);
}

Rng Rng::Fork() {
  // Draw two words so forked streams decorrelate even for adjacent seeds.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace dphist
