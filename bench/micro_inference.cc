// Experiment E10 — micro-benchmarks backing the paper's efficiency claims:
// isotonic regression and hierarchical inference are linear-time (the
// paper: "linear time algorithms", "requiring only two linear scans"),
// the Theorem 1 min-max form is quadratic (reference only), and range
// decomposition is logarithmic.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/laplace.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/experiments/runner.h"
#include "inference/hierarchical.h"
#include "paper/inference/isotonic.h"
#include "paper/inference/minmax_isotonic.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "tree/range_decomposition.h"

namespace {

using namespace dphist;  // NOLINT(build/namespaces)

std::vector<double> NoisySortedInput(std::int64_t n) {
  Rng rng(42);
  std::vector<std::int64_t> counts = ZipfCounts(n, 1.1, 5 * n, &rng);
  Histogram data = Histogram::FromCounts(counts);
  std::vector<double> truth = data.SortedCounts();
  LaplaceDistribution noise(1.0);
  for (double& x : truth) x += noise.Sample(&rng);
  return truth;
}

void BM_IsotonicPava(benchmark::State& state) {
  std::vector<double> input = NoisySortedInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsotonicRegression(input));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IsotonicPava)->Range(1 << 10, 1 << 20)->Complexity();

void BM_MinMaxReference(benchmark::State& state) {
  std::vector<double> input = NoisySortedInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinMaxLowerSolution(input));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinMaxReference)->Range(1 << 6, 1 << 11)->Complexity();

void BM_HierarchicalInference(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Rng rng(7);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &rng));
  HierarchicalQuery query(n, 2);
  LaplaceMechanism mechanism(1.0);
  std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
  TreeLayout tree(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HierarchicalInference(tree, noisy));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HierarchicalInference)->Range(1 << 10, 1 << 20)->Complexity();

void BM_RangeDecomposition(benchmark::State& state) {
  std::int64_t n = state.range(0);
  TreeLayout tree(n, 2);
  Rng rng(9);
  std::vector<Interval> ranges = RandomRangesOfSize(n, n / 3, 256, &rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeRange(tree, ranges[i++ % 256]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RangeDecomposition)->Range(1 << 10, 1 << 20)->Complexity();

void BM_LaplaceSampling(benchmark::State& state) {
  LaplaceDistribution noise(1.0);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise.Sample(&rng));
  }
}
BENCHMARK(BM_LaplaceSampling);

void BM_HBarEndToEnd(benchmark::State& state) {
  // Whole pipeline: perturb H, infer, prune, round — per trial cost of
  // the Fig. 6 experiment at the paper's scale.
  std::int64_t n = state.range(0);
  Rng rng(13);
  Histogram data =
      Histogram::FromCounts(ZipfCounts(n, 1.1, 5 * n, &rng));
  UniversalOptions options;
  options.epsilon = 0.1;
  for (auto _ : state) {
    HBarEstimator estimator(data, options, &rng);
    benchmark::DoNotOptimize(estimator.leaf_estimates());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HBarEndToEnd)->Range(1 << 12, 1 << 16)->Complexity();

}  // namespace
