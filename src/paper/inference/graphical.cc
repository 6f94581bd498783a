#include "paper/inference/graphical.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace dphist {
namespace {

/// Returns (first violated k, excess) for a descending sequence, or
/// (0, 0) if every Erdos-Gallai inequality holds. `k` is 1-based.
std::pair<std::int64_t, std::int64_t> FirstErdosGallaiViolation(
    const std::vector<std::int64_t>& descending) {
  const std::int64_t n = static_cast<std::int64_t>(descending.size());
  std::vector<std::int64_t> suffix(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t i = n - 1; i >= 0; --i) {
    suffix[static_cast<std::size_t>(i)] =
        suffix[static_cast<std::size_t>(i) + 1] +
        descending[static_cast<std::size_t>(i)];
  }
  std::int64_t prefix = 0;
  for (std::int64_t k = 1; k <= n; ++k) {
    prefix += descending[static_cast<std::size_t>(k - 1)];
    // Tail term: sum_{i>k} min(d_i, k). Sequence is descending, so find
    // the first index j >= k (0-based) with d_j <= k.
    auto it = std::lower_bound(descending.begin() + k, descending.end(), k,
                               [](std::int64_t d, std::int64_t bound) {
                                 return d > bound;  // first d <= k
                               });
    std::int64_t j = it - descending.begin();
    std::int64_t tail = (j - k) * k + suffix[static_cast<std::size_t>(j)];
    std::int64_t rhs = k * (k - 1) + tail;
    if (prefix > rhs) return {k, prefix - rhs};
  }
  return {0, 0};
}

}  // namespace

bool IsGraphicalDegreeSequence(const std::vector<std::int64_t>& degrees) {
  const std::int64_t n = static_cast<std::int64_t>(degrees.size());
  if (n == 0) return true;
  std::int64_t sum = 0;
  for (std::int64_t d : degrees) {
    if (d < 0 || d >= n) return false;
    sum += d;
  }
  if (sum % 2 != 0) return false;
  std::vector<std::int64_t> descending = degrees;
  std::sort(descending.begin(), descending.end(),
            std::greater<std::int64_t>());
  return FirstErdosGallaiViolation(descending).first == 0;
}

std::vector<std::int64_t> RepairToGraphical(
    const std::vector<std::int64_t>& degrees) {
  const std::int64_t n = static_cast<std::int64_t>(degrees.size());
  if (n == 0) return {};

  // Work on (value, original position) pairs so the result lands back in
  // the caller's positions.
  std::vector<std::pair<std::int64_t, std::size_t>> entries;
  entries.reserve(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    std::int64_t clamped = std::min(std::max<std::int64_t>(degrees[i], 0),
                                    n - 1);
    entries.emplace_back(clamped, i);
  }

  // Each outer iteration strictly decreases the degree sum (or finishes),
  // and the all-zero sequence is graphical, so this terminates.
  while (true) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::int64_t> values(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      values[i] = entries[i].first;
    }
    std::int64_t sum = std::accumulate(values.begin(), values.end(),
                                       std::int64_t{0});
    if (sum % 2 != 0) {
      // Decrement the largest positive entry to fix parity.
      for (auto& entry : entries) {
        if (entry.first > 0) {
          --entry.first;
          break;
        }
      }
      continue;
    }
    auto [k, excess] = FirstErdosGallaiViolation(values);
    if (k == 0) break;
    // Remove `excess` units from the top-k block, round-robin, so the
    // reduction is spread rather than dumped on one hub.
    std::int64_t remaining = excess;
    std::size_t cursor = 0;
    while (remaining > 0) {
      std::size_t index = cursor % static_cast<std::size_t>(k);
      if (entries[index].first > 0) {
        --entries[index].first;
        --remaining;
      }
      ++cursor;
      // Degenerate safety: if the whole block hit zero, parity/EG can no
      // longer be violated by it; break and let the outer loop re-check.
      if (cursor > static_cast<std::size_t>(k) * 2048) break;
    }
  }

  std::vector<std::int64_t> repaired(degrees.size(), 0);
  for (const auto& [value, position] : entries) {
    repaired[position] = value;
  }
  return repaired;
}

}  // namespace dphist
