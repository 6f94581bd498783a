#include "engine/answer_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "estimators/range_engine.h"

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
    const std::vector<const double*>& leaves, std::int64_t domain_size,
    std::int64_t shard_width, bool round_answers) {
  const auto shard_count = static_cast<std::int64_t>(leaves.size());
  auto plan = std::make_unique<AnswerPlan>();
  plan->domain_size = domain_size;
  plan->shard_width = shard_width;
  plan->shard_count = shard_count;
  plan->round_answers = round_answers;

  // Row offsets: each shard's w_s + 1 sums start on a 64-byte boundary.
  const auto width_of = [&](std::int64_t s) {
    return std::min(shard_width, domain_size - s * shard_width);
  };
  plan->offsets.reserve(static_cast<std::size_t>(shard_count));
  std::int64_t total = 0;
  for (std::int64_t s = 0; s < shard_count; ++s) {
    if (leaves[static_cast<std::size_t>(s)] == nullptr) {
      plan->offsets.push_back(-1);
      continue;
    }
    plan->offsets.push_back(total);
    total = AlignUp(total + width_of(s) + 1);
  }

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

  // Fold each shard's leaves into its row and precompute the whole-shard
  // answers (rounded with the kernels' exact semantics — `x <= 0` clamps
  // to +0.0, else round half away).
  plan->prefix = AlignedDoubles(static_cast<std::size_t>(total));
  plan->full_shard.reserve(static_cast<std::size_t>(shard_count));
  for (std::int64_t s = 0; s < shard_count; ++s) {
    const double* shard_leaves = leaves[static_cast<std::size_t>(s)];
    if (shard_leaves == nullptr) {
      plan->full_shard.push_back(0.0);
      continue;
    }
    const std::int64_t width = width_of(s);
    double* row =
        plan->prefix.data() + plan->offsets[static_cast<std::size_t>(s)];
    FoldLeafPrefixSums(shard_leaves, static_cast<std::size_t>(width), row);
    double whole = row[width] - row[0];
    if (round_answers) whole = whole <= 0.0 ? 0.0 : std::round(whole);
    plan->full_shard.push_back(whole);
  }
  return plan;
}

}  // namespace dphist::engine
