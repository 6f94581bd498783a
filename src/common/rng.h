// Deterministic random number generation.
//
// All randomness in dphist flows through Rng so that every experiment is
// reproducible from a single seed. Rng owns an in-tree MT19937-64
// (Matsumoto & Nishimura) and exposes the handful of primitive draws the
// library needs; distribution-specific samplers (Laplace, Zipf, ...) build
// on these.
//
// The engine emits the words of the standard library's mt19937_64 from the
// same seed (same seeding, twist and tempering), so std distributions over
// engine() read the words they would read from the standard engine. It
// twists its 312-word state without a branch on each word's low bit, which
// the compiler vectorizes on baseline x86-64, and it converts a whole state
// block to open-interval uniforms at once (NextOpenDoubles), which is what
// the Laplace mechanism draws.
//
// A word becomes a double the way libstdc++'s generate_canonical<double, 53>
// makes one from a single 64-bit word, which is what
// uniform_real_distribution<double>(0, 1) returns: UnitDoubleFromWord.

#ifndef DPHIST_COMMON_RNG_H_
#define DPHIST_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>

namespace dphist {

/// The double in [0, 1) that generate_canonical<double, 53> makes of one
/// 64-bit word: word * 2^-64 rounded once to nearest, with 1.0 (every word
/// from 2^64 - 1024 up) replaced by the largest double below 1.
double UnitDoubleFromWord(std::uint64_t word);

/// MT19937-64, the C++ standard's mersenne_twister_engine with the
/// mt19937_64 parameters. Meets the uniform random bit generator interface,
/// so std distributions and algorithms can draw from it.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit MersenneTwister64(result_type seed);

  /// Starts from the untempered state `state`, positioned at its first
  /// word: the next 312 words are the tempered state words. Lets a test
  /// put chosen words, such as 0, into the stream.
  explicit MersenneTwister64(const result_type (&state)[kStateWords]);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next word of the stream.
  result_type operator()() {
    if (next_ == kStateWords) Regenerate();
    return Temper(state_[next_++]);
  }

  /// Writes to out[0..n) the doubles n calls of NextOpenUnit would return,
  /// from the same words, and leaves the stream where they would.
  void FillOpenUnit(double* out, std::size_t n);

  /// UnitDoubleFromWord of the next nonzero word (a zero word, the one
  /// word that converts to 0.0, is skipped): a double in (0, 1).
  double NextOpenUnit();

 private:
  static result_type Temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Twists the whole state; the next word is state_[0] tempered.
  void Regenerate();

  result_type state_[kStateWords];
  std::size_t next_;
};

/// Deterministic pseudo-random source. Not thread-safe; use one per thread.
class Rng {
 public:
  /// Seeds the generator. The default seed is fixed so that callers who do
  /// not care about seeding still get reproducible runs.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// A double drawn uniformly from [0, 1).
  double NextDouble() { return UnitDoubleFromWord(engine_()); }

  /// A double drawn uniformly from the open interval (0, 1). Useful for
  /// inverse-CDF sampling where log(0) must be avoided.
  double NextOpenDouble() { return engine_.NextOpenUnit(); }

  /// Fills out[0..n) with what n NextOpenDouble calls would return, from
  /// the same words, a state block at a time.
  void NextOpenDoubles(double* out, std::size_t n) {
    engine_.FillOpenUnit(out, n);
  }

  /// A double drawn uniformly from [lo, hi). Requires lo < hi.
  double NextUniform(double lo, double hi);

  /// An integer drawn uniformly from [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// A sample from the standard normal distribution.
  double NextGaussian();

  /// A sample from Poisson(mean). Requires mean >= 0.
  std::int64_t NextPoisson(double mean);

  /// A sample from Bernoulli(p) as a bool. Requires 0 <= p <= 1.
  bool NextBernoulli(double p);

  /// Derives an independent child generator; useful for giving each trial
  /// of an experiment its own stream while keeping the parent reproducible.
  Rng Fork();

  /// Access to the underlying engine for std:: distributions.
  MersenneTwister64& engine() { return engine_; }

 private:
  MersenneTwister64 engine_;
};

}  // namespace dphist

#endif  // DPHIST_COMMON_RNG_H_
