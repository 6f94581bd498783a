// The dataset generators must reproduce the *shape* properties the paper's
// experiments rely on (Section 5 / Appendix C); these tests pin them down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "paper/data/nettrace.h"
#include "paper/data/search_logs.h"
#include "paper/data/social_network.h"

namespace dphist {
namespace {

/// Number of distinct count values (the `d` of Theorem 2).
std::int64_t DistinctCountValues(const Histogram& data) {
  return static_cast<std::int64_t>(
      std::set<double>(data.counts().begin(), data.counts().end()).size());
}

TEST(NetTraceTest, ShapeAndDeterminism) {
  NetTraceConfig config;
  config.num_hosts = 4096;
  config.num_connections = 30000;
  Histogram a = GenerateNetTrace(config);
  Histogram b = GenerateNetTrace(config);
  EXPECT_EQ(a.size(), 4096);
  EXPECT_EQ(a.counts(), b.counts());  // same seed, same data
  EXPECT_DOUBLE_EQ(a.Total(), 30000.0);
}

TEST(NetTraceTest, DifferentSeedsDiffer) {
  NetTraceConfig config;
  config.num_hosts = 1024;
  config.num_connections = 5000;
  Histogram a = GenerateNetTrace(config);
  config.seed = 43;
  Histogram b = GenerateNetTrace(config);
  EXPECT_NE(a.counts(), b.counts());
}

TEST(NetTraceTest, MostHostsQuietFewHostsBusy) {
  NetTraceConfig config;
  config.num_hosts = 8192;
  config.num_connections = 40000;
  Histogram data = GenerateNetTrace(config);
  // Sparse domain: at least the silent fraction of hosts has zero count.
  const std::int64_t zeros =
      std::count(data.counts().begin(), data.counts().end(), 0.0);
  EXPECT_GT(zeros, static_cast<std::int64_t>(0.5 * 8192));
  // Heavy tail: the busiest host dwarfs the median.
  std::vector<double> sorted = data.SortedCounts();
  EXPECT_GT(sorted.back(), 100.0);
}

TEST(NetTraceTest, DuplicateCountsDominate) {
  // Theorem 2 regime: d (distinct counts) << n.
  NetTraceConfig config;
  config.num_hosts = 8192;
  config.num_connections = 40000;
  Histogram data = GenerateNetTrace(config);
  EXPECT_LT(DistinctCountValues(data), data.size() / 20);
}

TEST(SocialNetworkTest, DegreeSequenceBasics) {
  SocialNetworkConfig config;
  config.num_nodes = 2000;
  config.edges_per_node = 3;
  Histogram degrees = GenerateSocialNetworkDegrees(config);
  EXPECT_EQ(degrees.size(), 2000);
  // Sum of degrees = 2 * edge count; edges = seed clique + m per new node.
  std::int64_t m = config.edges_per_node;
  std::int64_t clique_edges = (m + 1) * m / 2;
  std::int64_t grown_edges = (config.num_nodes - m - 1) * m;
  EXPECT_DOUBLE_EQ(degrees.Total(),
                   2.0 * static_cast<double>(clique_edges + grown_edges));
  // Minimum degree is m (every arriving node gets m edges).
  std::vector<double> sorted = degrees.SortedCounts();
  EXPECT_GE(sorted.front(), static_cast<double>(m));
}

TEST(SocialNetworkTest, PowerLawHead) {
  SocialNetworkConfig config;
  config.num_nodes = 5000;
  config.edges_per_node = 4;
  Histogram degrees = GenerateSocialNetworkDegrees(config);
  std::vector<double> sorted = degrees.SortedCounts();
  // Hubs exist: max degree far above the minimum.
  EXPECT_GT(sorted.back(), 20.0 * sorted.front());
  // Duplicates dominate (many nodes share the low degrees).
  EXPECT_LT(DistinctCountValues(degrees), degrees.size() / 10);
}

TEST(SocialNetworkTest, Deterministic) {
  SocialNetworkConfig config;
  config.num_nodes = 500;
  Histogram a = GenerateSocialNetworkDegrees(config);
  Histogram b = GenerateSocialNetworkDegrees(config);
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(KeywordFrequencyTest, DescendingRankOrder) {
  KeywordFrequencyConfig config;
  config.num_keywords = 5000;
  config.total_searches = 200000;
  Histogram data = GenerateKeywordFrequencies(config);
  EXPECT_EQ(data.size(), 5000);
  EXPECT_DOUBLE_EQ(data.Total(), 200000.0);
  const std::vector<double>& counts = data.counts();
  EXPECT_TRUE(std::is_sorted(counts.rbegin(), counts.rend()));
}

TEST(KeywordFrequencyTest, ZipfHead) {
  KeywordFrequencyConfig config;
  config.num_keywords = 5000;
  config.total_searches = 500000;
  Histogram data = GenerateKeywordFrequencies(config);
  // Top keyword claims a disproportionate share.
  EXPECT_GT(data.At(0), data.Total() / 200.0);
}

TEST(TemporalSeriesTest, BurstDominatesBaseline) {
  TemporalSeriesConfig config;
  config.num_slots = 8192;
  Histogram series = GenerateTemporalSeries(config);
  EXPECT_EQ(series.size(), 8192);
  // Count mass inside the burst window vs an equally sized early window.
  std::int64_t center = static_cast<std::int64_t>(0.7 * 8192);
  std::int64_t width = static_cast<std::int64_t>(0.05 * 8192);
  double burst = series.Count(Interval(center - width, center + width));
  double early = series.Count(Interval(0, 2 * width));
  EXPECT_GT(burst, 20.0 * std::max(early, 1.0));
}

TEST(TemporalSeriesTest, MostlyQuietEarly) {
  TemporalSeriesConfig config;
  config.num_slots = 8192;
  Histogram series = GenerateTemporalSeries(config);
  // The pre-burst half is sparse: most slots are zero.
  std::int64_t zeros = 0;
  std::int64_t half = 4096;
  for (std::int64_t t = 0; t < half; ++t) {
    if (series.At(t) == 0.0) ++zeros;
  }
  EXPECT_GT(zeros, half / 2);
}

TEST(TemporalSeriesTest, DiurnalModulationVisible) {
  TemporalSeriesConfig config;
  config.num_slots = 16384;
  config.diurnal_depth = 0.9;
  Histogram series = GenerateTemporalSeries(config);
  // Aggregate by slot-of-day; the quietest slot should see far less
  // traffic than the busiest one.
  std::vector<double> by_slot(static_cast<std::size_t>(config.slots_per_day),
                              0.0);
  for (std::int64_t t = 0; t < series.size(); ++t) {
    by_slot[static_cast<std::size_t>(t % config.slots_per_day)] +=
        series.At(t);
  }
  double lo = *std::min_element(by_slot.begin(), by_slot.end());
  double hi = *std::max_element(by_slot.begin(), by_slot.end());
  EXPECT_GT(hi, 3.0 * std::max(lo, 1.0));
}

TEST(TemporalSeriesTest, Deterministic) {
  TemporalSeriesConfig config;
  config.num_slots = 1024;
  Histogram a = GenerateTemporalSeries(config);
  Histogram b = GenerateTemporalSeries(config);
  EXPECT_EQ(a.counts(), b.counts());
}

}  // namespace
}  // namespace dphist
