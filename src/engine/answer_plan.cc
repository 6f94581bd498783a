#include "engine/answer_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace dphist::engine {
namespace {

constexpr std::size_t kAlignment = 64;
constexpr std::size_t kDoublesPerLine = kAlignment / sizeof(double);

std::int64_t AlignUp(std::int64_t value) {
  const std::int64_t lanes = static_cast<std::int64_t>(kDoublesPerLine);
  return (value + lanes - 1) / lanes * lanes;
}

}  // namespace

AlignedDoubles::AlignedDoubles(std::size_t count) : size_(count) {
  // aligned_alloc requires the byte size to be a multiple of the
  // alignment; round up (the padding is never read).
  const std::size_t bytes =
      (count * sizeof(double) + kAlignment - 1) / kAlignment * kAlignment;
  double* raw = static_cast<double*>(
      std::aligned_alloc(kAlignment, bytes == 0 ? kAlignment : bytes));
  // dphist-lint: allow(serving-check) out of memory; other allocations throw
  DPHIST_CHECK_MSG(raw != nullptr, "AnswerPlan allocation failed");
  data_.reset(raw);
}

void AlignedDoubles::Deleter::operator()(double* p) const { std::free(p); }

std::unique_ptr<const AnswerPlan> BuildAnswerPlan(
    const std::unique_ptr<RangeCountEstimator>* shards,
    std::int64_t shard_count, std::int64_t domain_size,
    std::int64_t shard_width) {
  if (shard_count < 1 || domain_size < 1 || shard_width < 1) return nullptr;
  auto plan = std::make_unique<AnswerPlan>();
  plan->domain_size = domain_size;
  plan->shard_width = shard_width;
  plan->shard_count = shard_count;
  plan->offsets.reserve(static_cast<std::size_t>(shard_count));

  // First pass: eligibility + total flattened size. Every shard must be
  // prefix-served, cover exactly its slice of the domain, and agree on
  // the rounding semantics — a mixed release (possible in principle for
  // H-bar, where consistency is detected per shard) keeps the walker.
  std::int64_t total = 0;
  bool round = false;
  for (std::int64_t s = 0; s < shard_count; ++s) {
    const PrefixAnswerView view = shards[s]->PrefixView();
    if (view.prefix == nullptr) return nullptr;
    const std::int64_t lo = s * shard_width;
    const std::int64_t expected_width =
        std::min(domain_size - 1, lo + shard_width - 1) - lo + 1;
    if (view.size != expected_width) return nullptr;
    if (s == 0) {
      round = view.round_final_answer;
    } else if (view.round_final_answer != round) {
      return nullptr;
    }
    plan->offsets.push_back(total);
    total = AlignUp(total + view.size + 1);
  }
  plan->round_answers = round;

  // Precompute the division-free shard locator. Power-of-two widths
  // (the common geometry: power-of-two domains over power-of-two shard
  // counts) reduce to a shift; everything else gets a 64.64 fixed-point
  // reciprocal whose exactness is verified at the extremes of every
  // quotient class — (position * magic) >> 64 is monotone in position,
  // so agreeing with position / width at each shard's first and last
  // position proves it agrees everywhere in between.
  if ((shard_width & (shard_width - 1)) == 0) {
    int shift = 0;
    while ((std::int64_t{1} << shift) < shard_width) ++shift;
    plan->shard_shift = shift;
  } else {
    const std::uint64_t d = static_cast<std::uint64_t>(shard_width);
    const std::uint64_t magic = ~std::uint64_t{0} / d + 1;
    const auto mul_shift = [magic](std::uint64_t n) {
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(n) * magic) >> 64);
    };
    bool exact = true;
    for (std::int64_t q = 0; q < shard_count && exact; ++q) {
      const std::uint64_t first = static_cast<std::uint64_t>(q) * d;
      const std::uint64_t last = std::min(
          first + d - 1, static_cast<std::uint64_t>(domain_size - 1));
      exact = mul_shift(first) == static_cast<std::uint64_t>(q) &&
              mul_shift(last) == static_cast<std::uint64_t>(q);
    }
    if (exact) plan->shard_magic = magic;
  }

  // Second pass: copy each shard's table into its 64-byte-aligned row
  // and precompute the whole-shard answers (rounded with the kernels'
  // exact semantics — `x <= 0` clamps to +0.0, else round half away).
  plan->prefix = AlignedDoubles(static_cast<std::size_t>(total));
  plan->full_shard.reserve(static_cast<std::size_t>(shard_count));
  for (std::int64_t s = 0; s < shard_count; ++s) {
    const PrefixAnswerView view = shards[s]->PrefixView();
    std::memcpy(plan->prefix.data() + plan->offsets[static_cast<std::size_t>(s)],
                view.prefix,
                static_cast<std::size_t>(view.size + 1) * sizeof(double));
    double whole = view.prefix[view.size] - view.prefix[0];
    if (round) whole = whole <= 0.0 ? 0.0 : std::round(whole);
    plan->full_shard.push_back(whole);
  }
  return plan;
}

}  // namespace dphist::engine
