#include "paper/inference/isotonic.h"

#include <algorithm>

#include "common/check.h"

namespace dphist {
namespace {

/// A maximal constant run of the solution: the weighted mean of the inputs
/// it pools, the pooled weight, and how many inputs it spans.
struct Block {
  double mean;
  double weight;
  std::size_t span;
};

}  // namespace

std::vector<double> WeightedIsotonicRegression(
    const std::vector<double>& values, const std::vector<double>& weights) {
  DPHIST_CHECK(values.size() == weights.size());
  std::vector<Block> stack;
  stack.reserve(values.size());

  for (std::size_t i = 0; i < values.size(); ++i) {
    DPHIST_CHECK_MSG(weights[i] > 0.0, "isotonic weights must be positive");
    Block block{values[i], weights[i], 1};
    // Pool while the new block violates monotonicity against the stack top.
    while (!stack.empty() && stack.back().mean >= block.mean) {
      const Block& top = stack.back();
      double w = top.weight + block.weight;
      block.mean = (top.mean * top.weight + block.mean * block.weight) / w;
      block.weight = w;
      block.span += top.span;
      stack.pop_back();
    }
    stack.push_back(block);
  }

  std::vector<double> out;
  out.reserve(values.size());
  for (const Block& block : stack) {
    out.insert(out.end(), block.span, block.mean);
  }
  return out;
}

std::vector<double> IsotonicRegression(const std::vector<double>& values) {
  return WeightedIsotonicRegression(
      values, std::vector<double>(values.size(), 1.0));
}

std::vector<double> AntitonicRegression(const std::vector<double>& values) {
  std::vector<double> reversed(values.rbegin(), values.rend());
  std::vector<double> fitted = IsotonicRegression(reversed);
  std::reverse(fitted.begin(), fitted.end());
  return fitted;
}

}  // namespace dphist
