// Continually releasing a running count over a private event stream —
// the Chan et al. binary mechanism Section 6 relates to H.
//
// Scenario: a service wants a live dashboard of cumulative sign-ups
// without ever exposing an individual's contribution. The whole stream
// of releases (one per step, forever up to the horizon) is covered by a
// single epsilon.

#include <cstdio>

#include "common/laplace.h"
#include "common/rng.h"
#include "paper/data/search_logs.h"
#include "paper/estimators/continual_counter.h"

int main() {
  using namespace dphist;

  // A bursty event stream: reuse the temporal generator (16 slots/day).
  TemporalSeriesConfig config;
  config.num_slots = 4096;
  Histogram stream = GenerateTemporalSeries(config);

  const double epsilon = 1.0;
  Rng rng(31);
  ContinualCounter counter(stream.size(), epsilon, rng);

  // Naive comparator: per-step noise scaled for the whole release
  // sequence (each item is in every later prefix).
  LaplaceDistribution naive_noise(static_cast<double>(stream.size()) /
                                  epsilon);
  Rng naive_rng(32);
  double naive_running = 0.0;

  std::printf("horizon %lld steps, eps=%.1f, per-node noise scale %.1f\n\n",
              static_cast<long long>(stream.size()), epsilon,
              counter.noise_scale());
  std::printf("%8s  %12s  %16s  %16s\n", "step", "true total",
              "binary mechanism", "naive counter");
  double true_total = 0.0;
  for (std::int64_t t = 0; t < stream.size(); ++t) {
    double value = stream.At(t);
    counter.Observe(value);
    true_total += value;
    naive_running += value + naive_noise.Sample(&naive_rng);
    if ((t + 1) % 512 == 0) {
      std::printf("%8lld  %12.0f  %16.1f  %16.1f\n",
                  static_cast<long long>(t + 1), true_total,
                  counter.RunningTotal(), naive_running);
    }
  }
  std::printf(
      "\nthe binary mechanism's error stays poly-log in the horizon at "
      "every step; the naive counter drifts with sqrt(t) * horizon "
      "noise.\n");
  return 0;
}
