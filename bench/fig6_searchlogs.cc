// Experiment E4 — Figure 6 (bottom row): universal histograms on Search
// Logs — the temporal frequency of one query term ("Obama") from Jan 2004
// onward, a day divided into 16 slots.
//
// Same protocol and claims as the NetTrace row; the dataset differs in
// shape (quiet early years, an election burst, sustained interest after),
// which is what moves the crossover point and H-bar's margins.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common/flags.h"
#include "paper/data/search_logs.h"
#include "paper/experiments/report.h"
#include "paper/experiments/runner.h"

using namespace dphist;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  UniversalExperimentConfig config;
  config.trials = flags.GetInt("trials", 50, "DPHIST_TRIALS");
  config.ranges_per_size = flags.GetInt("ranges", 1000, "DPHIST_RANGES");
  config.threads = flags.GetInt("threads", 0, "DPHIST_THREADS");
  std::int64_t scale = flags.GetInt("scale", 1, "DPHIST_SCALE");

  TemporalSeriesConfig series;
  series.num_slots = 32768 / scale;
  Histogram data = GenerateTemporalSeries(series);

  PrintBanner(std::cout,
              "Figure 6 (bottom): universal histograms on Search Logs");
  std::printf("n=%lld (time slots) trials=%lld ranges/size=%lld\n\n",
              static_cast<long long>(data.size()),
              static_cast<long long>(config.trials),
              static_cast<long long>(config.ranges_per_size));

  std::vector<UniversalCell> cells = RunUniversalExperiment(data, config);

  TablePrinter table({"eps", "range size", "L~", "H~", "H-bar"});
  std::map<std::pair<double, std::int64_t>, std::map<std::string, double>>
      grid;
  for (const UniversalCell& cell : cells) {
    grid[{cell.epsilon, cell.range_size}][cell.estimator] =
        cell.avg_squared_error;
  }
  for (const auto& [key, row] : grid) {
    table.AddRow({FormatFixed(key.first), std::to_string(key.second),
                  FormatScientific(row.at("L~")),
                  FormatScientific(row.at("H~")),
                  FormatScientific(row.at("H-bar"))});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "paper-vs-measured");
  for (double eps : config.epsilons) {
    std::int64_t crossover = -1;
    int hbar_wins = 0, points = 0;
    double best_reduction = 0.0;
    for (const auto& [key, row] : grid) {
      if (key.first != eps) continue;
      if (crossover < 0 && row.at("H~") < row.at("L~")) crossover = key.second;
      ++points;
      if (row.at("H-bar") <= row.at("H~") * 1.02) ++hbar_wins;
      double reduction = 1.0 - row.at("H-bar") / row.at("L~");
      if (key.second >= 1024) {
        best_reduction = std::max(best_reduction, reduction);
      }
    }
    std::printf(
        "  eps=%s: L~/H~ crossover at range %lld; H-bar <= H~ at %d/%d "
        "points; H-bar cuts L~'s large-range error by up to %.0f%% "
        "(paper: 45-98%%)\n",
        FormatFixed(eps).c_str(), static_cast<long long>(crossover),
        hbar_wins, points, 100.0 * best_reduction);
  }
  return 0;
}
