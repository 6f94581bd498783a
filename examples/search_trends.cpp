// Private search-trend analytics over time — the Search Logs task of
// Section 5.2.
//
// A search engine wants to publish how often one query term was searched
// over six years (16 slots/day) without revealing any individual's
// searches. After one epsilon-DP release, analysts can ask for any time
// window: days, weeks, the burst month, the whole history.

#include <cstdio>

#include "common/rng.h"
#include "paper/data/search_logs.h"
#include "estimators/universal.h"

int main() {
  using namespace dphist;

  TemporalSeriesConfig config;
  config.num_slots = 32768;  // ~5.6 years at 16 slots/day
  Histogram series = GenerateTemporalSeries(config);
  std::printf("series: %lld time slots, %.0f total searches\n",
              static_cast<long long>(series.size()), series.Total());

  UniversalOptions options;
  options.epsilon = 1.0;
  Rng rng(5);
  HBarEstimator h_bar(series, options, &rng);

  const std::int64_t slots_per_day = config.slots_per_day;
  const std::int64_t slots_per_week = 7 * slots_per_day;
  struct Window {
    const char* label;
    Interval range;
  };
  std::int64_t burst = static_cast<std::int64_t>(0.7 * 32768);
  Window windows[] = {
      {"one quiet day (year 1)", Interval(160, 160 + slots_per_day - 1)},
      {"one week before burst",
       Interval(burst - 2 * slots_per_week, burst - slots_per_week - 1)},
      {"burst week", Interval(burst, burst + slots_per_week - 1)},
      {"first half of history", Interval(0, 16383)},
      {"full history", Interval(0, 32767)},
  };

  std::printf("\nepsilon = %.2f\n", options.epsilon);
  std::printf("%-26s  %10s  %10s  %9s\n", "window", "true", "H-bar",
              "rel.err");
  for (const Window& w : windows) {
    double truth = series.Count(w.range);
    double estimate = h_bar.RangeCount(w.range);
    double rel = truth > 0 ? (estimate - truth) / truth * 100.0 : 0.0;
    std::printf("%-26s  %10.0f  %10.0f  %8.1f%%\n", w.label, truth,
                estimate, rel);
  }
  std::printf(
      "\nall windows were answered from ONE private release; asking more "
      "windows costs no additional privacy budget.\n");
  return 0;
}
