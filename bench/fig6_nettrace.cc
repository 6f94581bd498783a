// Experiment E3 — Figure 6 (top row): universal histograms on NetTrace.
//
// Average squared error of range queries of size 2^i (random location)
// for the estimators L~, H~, and H-bar at eps in {1.0, 0.1, 0.01}.
// Paper protocol: 50 noise samples x 1000 ranges per size. Override with
// --trials / --ranges or DPHIST_TRIALS / DPHIST_RANGES.
//
// Paper claims checked:
//   - error(L~) grows linearly with range size; H~ grows slowly;
//   - L~ and H~ cross over (paper: near range size ~2000);
//   - H-bar's error is uniformly lower than H~'s;
//   - at the largest ranges L~'s error is 4-8x that of H~.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common/flags.h"
#include "paper/data/nettrace.h"
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

  NetTraceConfig nettrace;
  nettrace.num_hosts = 65536 / scale;
  nettrace.num_connections = 300000 / scale;
  Histogram data = GenerateNetTrace(nettrace);

  PrintBanner(std::cout,
              "Figure 6 (top): universal histograms on NetTrace");
  std::printf("n=%lld trials=%lld ranges/size=%lld\n\n",
              static_cast<long long>(data.size()),
              static_cast<long long>(config.trials),
              static_cast<long long>(config.ranges_per_size));

  std::vector<UniversalCell> cells = RunUniversalExperiment(data, config);

  TablePrinter table({"eps", "range size", "L~", "H~", "H-bar"});
  // cell order: for each eps, for each size: L~, H~, H-bar.
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
    // Crossover: smallest size where H~ < L~.
    std::int64_t crossover = -1;
    double largest_ratio = 0.0;
    std::int64_t largest_size = 0;
    int hbar_wins = 0, points = 0;
    for (const auto& [key, row] : grid) {
      if (key.first != eps) continue;
      if (crossover < 0 && row.at("H~") < row.at("L~")) crossover = key.second;
      if (key.second > largest_size) {
        largest_size = key.second;
        largest_ratio = row.at("L~") / row.at("H~");
      }
      ++points;
      if (row.at("H-bar") <= row.at("H~") * 1.02) ++hbar_wins;
    }
    std::printf(
        "  eps=%s: L~/H~ crossover at range %lld (paper ~2000); "
        "L~/H~ at largest range %.1fx (paper 4-8x); "
        "H-bar <= H~ at %d/%d points (paper: uniformly lower)\n",
        FormatFixed(eps).c_str(), static_cast<long long>(crossover),
        largest_ratio, hbar_wins, points);
  }
  return 0;
}
