// Synthetic SearchLogs: stand-in for the paper's search-query log.
//
// The paper derives two histograms from its (synthetic, for the same
// privacy reasons) search-log data:
//   1. Fig. 5: search frequency of the top-20K keywords over a 3-month
//      window — a rank-frequency vector, Zipf by Heaps/Zipf folklore.
//   2. Fig. 6 bottom: the temporal frequency of one term ("Obama") from
//      Jan 2004 onward, a day split into 16 slots — a mostly-quiet series
//      with a huge localized burst (the 2008 election).
// Both generators reproduce those shapes.

#ifndef DPHIST_PAPER_DATA_SEARCH_LOGS_H_
#define DPHIST_PAPER_DATA_SEARCH_LOGS_H_

#include <cstdint>

#include "common/rng.h"
#include "domain/histogram.h"

namespace dphist {

/// Parameters for the rank-frequency (top-K keyword) histogram.
struct KeywordFrequencyConfig {
  /// Number of keywords tracked (domain size).
  std::int64_t num_keywords = 20000;
  /// Total searches in the window.
  std::int64_t total_searches = 2000000;
  /// Zipf exponent of keyword popularity.
  double zipf_exponent = 1.05;
  /// Generator seed.
  std::uint64_t seed = 42;
};

/// Position i holds the search count of the i-th ranked keyword
/// (descending), matching the Fig. 5 query description.
Histogram GenerateKeywordFrequencies(const KeywordFrequencyConfig& config);

/// Parameters for a single term's time series.
struct TemporalSeriesConfig {
  /// Number of time slots (16 per day in the paper). 32768 slots is about
  /// 5.6 years at 16/day, spanning 2004 to "the present" of the paper.
  std::int64_t num_slots = 32768;
  /// Poisson rate of background searches per slot before the burst.
  double base_rate = 0.2;
  /// Center of the burst, as a fraction of the series (the 2008 election
  /// sits ~70% of the way from Jan 2004 to mid 2010).
  double burst_center = 0.7;
  /// Burst width as a fraction of the series.
  double burst_width = 0.05;
  /// Peak Poisson rate at the burst center.
  double burst_peak_rate = 400.0;
  /// Post-burst sustained interest multiplier on base_rate.
  double post_burst_multiplier = 25.0;
  /// Depth of the diurnal modulation in [0, 1): 0 = flat days.
  double diurnal_depth = 0.8;
  /// Slots per day for the diurnal cycle.
  std::int64_t slots_per_day = 16;
  /// Generator seed.
  std::uint64_t seed = 42;
};

/// Per-slot search counts for one term over the whole period.
Histogram GenerateTemporalSeries(const TemporalSeriesConfig& config);

}  // namespace dphist

#endif  // DPHIST_PAPER_DATA_SEARCH_LOGS_H_
