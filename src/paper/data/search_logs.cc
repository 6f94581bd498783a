#include "paper/data/search_logs.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "data/zipf.h"

namespace dphist {

Histogram GenerateKeywordFrequencies(const KeywordFrequencyConfig& config) {
  DPHIST_CHECK(config.num_keywords > 0);
  DPHIST_CHECK(config.total_searches >= 0);
  Rng rng(config.seed);
  std::vector<std::int64_t> counts = ZipfCounts(
      config.num_keywords, config.zipf_exponent, config.total_searches, &rng);
  // The Fig. 5 query reports counts by keyword *rank*, so order descending.
  std::sort(counts.begin(), counts.end(), std::greater<std::int64_t>());
  return Histogram::FromCounts(counts, "keyword_rank");
}

Histogram GenerateTemporalSeries(const TemporalSeriesConfig& config) {
  DPHIST_CHECK(config.num_slots > 0);
  DPHIST_CHECK(config.base_rate >= 0.0);
  DPHIST_CHECK(config.burst_width > 0.0);
  DPHIST_CHECK(config.diurnal_depth >= 0.0 && config.diurnal_depth < 1.0);
  DPHIST_CHECK(config.slots_per_day > 0);
  Rng rng(config.seed);

  const double n = static_cast<double>(config.num_slots);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(config.num_slots), 0);
  for (std::int64_t t = 0; t < config.num_slots; ++t) {
    double frac = static_cast<double>(t) / n;
    // Background interest, jumping to a sustained higher plateau after the
    // burst (people keep searching a name once it is famous).
    double rate = config.base_rate;
    if (frac > config.burst_center) rate *= config.post_burst_multiplier;
    // Gaussian burst around the event.
    double dx = (frac - config.burst_center) / config.burst_width;
    rate += config.burst_peak_rate * std::exp(-0.5 * dx * dx);
    // Diurnal modulation: quiet nights, busy evenings.
    double day_phase = 2.0 * 3.14159265358979323846 *
                       static_cast<double>(t % config.slots_per_day) /
                       static_cast<double>(config.slots_per_day);
    rate *= 1.0 - config.diurnal_depth * 0.5 * (1.0 + std::cos(day_phase));
    counts[static_cast<std::size_t>(t)] = rng.NextPoisson(rate);
  }
  return Histogram::FromCounts(counts, "time_slot");
}

}  // namespace dphist
