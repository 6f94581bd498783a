// Self-test of the benchmark's arithmetic (arith.h): percentiles,
// per-slice percentiles, span self-times, the unattributed residual and
// RMSE. Exits non-zero on the first failed expectation; run by
// tests/test_perfbench.py.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (!(std::fabs(actual - expected) <= 1e-9 * (1.0 + std::fabs(expected)))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, actual, expected);
    ++failures;
  }
}

void TestPercentile() {
  using perfbench::Percentile;
  // Type-7 interpolation: position p/100 * (n - 1) in the sorted sample.
  const std::vector<double> v = {40, 10, 30, 20};  // unsorted on purpose
  ExpectNear(Percentile(v, 0), 10, "p0 is the minimum");
  ExpectNear(Percentile(v, 100), 40, "p100 is the maximum");
  ExpectNear(Percentile(v, 50), 25, "p50 of an even sample interpolates");
  ExpectNear(Percentile(v, 25), 17.5, "p25 interpolates at position 0.75");
  ExpectNear(perfbench::Median({3, 1, 2}), 2, "median of an odd sample");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  ExpectNear(Percentile(ramp, 99), 990.01, "p99 of 1..1000");
  ExpectNear(Percentile({7}, 99), 7, "any percentile of one sample");
  if (!std::isnan(Percentile({}, 50))) {
    std::printf("FAIL empty sample should give NaN\n");
    ++failures;
  }
}

void TestPercentilePerSlice() {
  using perfbench::PercentilePerSlice;
  // Slices 0 and 2 hold samples, out of order; slice 1 is empty and
  // skipped. Each slice's percentile is computed over its own samples.
  const std::vector<perfbench::SlicedSample> samples = {
      {2, 100}, {0, 4}, {2, 300}, {0, 1}, {0, 3}, {2, 200}, {0, 2}};
  const std::vector<double> p50 = PercentilePerSlice(samples, 50);
  const std::vector<double> p100 = PercentilePerSlice(samples, 100);
  if (p50.size() != 2 || p100.size() != 2) {
    std::printf("FAIL per-slice percentiles: got %zu and %zu slices, want 2\n",
                p50.size(), p100.size());
    ++failures;
    return;
  }
  ExpectNear(p50[0], 2.5, "p50 of slice 0 (1..4)");
  ExpectNear(p50[1], 200, "p50 of slice 2 (100..300)");
  ExpectNear(p100[0], 4, "max of slice 0");
  ExpectNear(p100[1], 300, "max of slice 2");
  if (!PercentilePerSlice({}, 99).empty()) {
    std::printf("FAIL no samples should give no slices\n");
    ++failures;
  }
}

void TestSelfTimes() {
  using perfbench::Span;
  // request [0,100) with children [10,30) and [50,60); the first child
  // has a grandchild [15,25). A second root [200,260) has overlapping
  // children [210,240) and [230,250) (covered once: 40) and a child that
  // leaks past its parent [255,270) (only 5 of it counts).
  const std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},   {"wire", 10, 30, 0, 1},
      {"inner", 15, 25, 1, 1},      {"batch", 50, 60, 0, 1},
      {"request", 200, 260, -1, 2}, {"a", 210, 240, 4, 2},
      {"b", 230, 250, 4, 2},        {"c", 255, 270, 4, 2},
  };
  const std::vector<std::int64_t> self = perfbench::SelfTimes(spans);
  const std::vector<std::int64_t> want = {70, 10, 10, 10, 15, 30, 20, 15};
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (self[i] != want[i]) {
      std::printf("FAIL self time of span %zu: got %lld, want %lld\n", i,
                  static_cast<long long>(self[i]),
                  static_cast<long long>(want[i]));
      ++failures;
    }
  }
  // Self times of a tree of nested, non-overlapping spans add up to the
  // roots' durations: nothing is counted twice or lost.
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) total += self[i];
  ExpectNear(static_cast<double>(total), 100, "self times partition a root");
}

void TestResidual() {
  ExpectNear(perfbench::UnattributedResidual(73.5, {12.0, 22.0, 26.0}), 13.5,
             "residual is cpu minus the layer sum");
  ExpectNear(perfbench::UnattributedResidual(10.0, {6.0, 7.0}), -3.0,
             "residual may go negative");
  ExpectNear(perfbench::UnattributedResidual(5.0, {}), 5.0,
             "no layers leaves everything unattributed");
}

void TestRmse() {
  perfbench::RmseAccumulator rmse;
  if (!std::isnan(rmse.value())) {
    std::printf("FAIL empty RMSE should give NaN\n");
    ++failures;
  }
  const double est1[] = {1, 2, 3};
  const double truth1[] = {0, 2, 5};  // errors 1, 0, -2
  rmse.Add(est1, truth1, 3);
  ExpectNear(rmse.value(), std::sqrt(5.0 / 3.0), "RMSE of one release");
  const double est2[] = {10};
  const double truth2[] = {7};  // error 3
  rmse.Add(est2, truth2, 1);
  // Every answer weighs the same across releases: sqrt((1+0+4+9)/4).
  ExpectNear(rmse.value(), std::sqrt(14.0 / 4.0), "RMSE pooled over releases");
}

}  // namespace

int main() {
  TestPercentile();
  TestPercentilePerSlice();
  TestSelfTimes();
  TestResidual();
  TestRmse();
  if (failures == 0) std::printf("arith_test: all passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
