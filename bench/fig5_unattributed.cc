// Experiment E2 — Figure 5: unattributed histograms.
//
// Reproduces the paper's Fig. 5: average squared error of the estimators
// S~ (noisy answer), S~r (sort + round), and S-bar (constrained
// inference), on the three datasets at eps in {1.0, 0.1, 0.01}.
// Paper protocol: 50 random samples per cell. Override with --trials or
// DPHIST_TRIALS.
//
// Paper claim checked: "the proposed approach reduces the error by at
// least an order of magnitude across all datasets and settings of eps."

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "paper/data/nettrace.h"
#include "paper/data/search_logs.h"
#include "paper/data/social_network.h"
#include "paper/experiments/report.h"
#include "paper/experiments/runner.h"

namespace {

using namespace dphist;  // NOLINT(build/namespaces)

struct DatasetSpec {
  std::string name;
  Histogram data;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  UnattributedExperimentConfig config;
  config.trials = flags.GetInt("trials", 50, "DPHIST_TRIALS");
  config.threads = flags.GetInt("threads", 0, "DPHIST_THREADS");
  std::int64_t scale = flags.GetInt("scale", 1, "DPHIST_SCALE");

  // The paper's datasets (Section 5.1): NetTrace (~65K external hosts),
  // Social Network (~11K nodes), Search Logs (top 20K keywords). --scale N
  // divides domain sizes by N for quick runs.
  NetTraceConfig nettrace;
  nettrace.num_hosts = 65536 / scale;
  nettrace.num_connections = 300000 / scale;
  SocialNetworkConfig social;
  social.num_nodes = 11000 / scale;
  KeywordFrequencyConfig keywords;
  keywords.num_keywords = 20000 / scale;
  keywords.total_searches = 2000000 / scale;

  std::vector<DatasetSpec> datasets;
  datasets.push_back({"SocialNetwork", GenerateSocialNetworkDegrees(social)});
  datasets.push_back({"NetTrace", GenerateNetTrace(nettrace)});
  datasets.push_back({"SearchLogs", GenerateKeywordFrequencies(keywords)});

  PrintBanner(std::cout, "Figure 5: unattributed histograms (S~, S~r, S-bar)");
  std::printf("trials per cell: %lld\n\n",
              static_cast<long long>(config.trials));

  TablePrinter table({"dataset", "n", "eps", "estimator",
                      "total sq. error", "per-count error"});
  bool order_of_magnitude_everywhere = true;
  std::vector<std::string> verdicts;
  for (const DatasetSpec& dataset : datasets) {
    std::vector<UnattributedCell> cells =
        RunUnattributedExperiment(dataset.data, config);
    // Cells arrive grouped per epsilon in estimator order S~, S~r, S-bar.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const UnattributedCell& cell = cells[i];
      table.AddRow({dataset.name, std::to_string(dataset.data.size()),
                    FormatFixed(cell.epsilon),
                    UnattributedEstimatorName(cell.estimator),
                    FormatScientific(cell.total_squared_error),
                    FormatScientific(cell.per_count_error)});
      if (cell.estimator == UnattributedEstimator::kSBar) {
        const UnattributedCell& baseline = cells[i - 2];  // S~ of same eps
        double improvement =
            baseline.total_squared_error / cell.total_squared_error;
        if (improvement < 10.0) order_of_magnitude_everywhere = false;
        verdicts.push_back(dataset.name + " eps=" +
                           FormatFixed(cell.epsilon) + ": S-bar improves " +
                           FormatRatio(improvement) + " over S~");
      }
    }
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "paper-vs-measured");
  for (const std::string& v : verdicts) std::cout << "  " << v << "\n";
  std::cout << "paper: error reduced by at least an order of magnitude "
               "across all datasets and eps\n";
  std::cout << "measured: improvement >= 10x in every cell: "
            << (order_of_magnitude_everywhere ? "YES" : "NO") << "\n";
  return 0;
}
