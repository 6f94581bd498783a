// Managing a privacy budget across multiple releases — the sequential
// composition protocol of Section 2.1.
//
// A data owner grants a total budget of epsilon = 1.0. The analyst
// spends slices of it on different query sequences; the accountant
// enforces the bound and keeps an audit ledger.

#include <cstdio>

#include "common/rng.h"
#include "paper/data/nettrace.h"
#include "paper/estimators/unattributed.h"
#include "estimators/universal.h"
#include "mechanism/privacy_accountant.h"

int main() {
  using namespace dphist;

  NetTraceConfig config;
  config.num_hosts = 16384;
  config.num_connections = 80000;
  Histogram trace = GenerateNetTrace(config);

  PrivacyAccountant accountant(1.0);
  Rng rng(99);
  std::printf("total privacy budget: %.2f\n\n", accountant.total_budget());

  // Release 1: a universal histogram at eps = 0.5.
  {
    Status s = accountant.Spend(0.5, "universal histogram (H-bar)");
    std::printf("[1] universal histogram at eps=0.5: %s\n",
                s.ToString().c_str());
    UniversalOptions options;
    options.epsilon = 0.5;
    HBarEstimator h_bar(trace, options, &rng);
    std::printf("    total connections ~ %.0f (true %.0f)\n",
                h_bar.RangeCount(Interval(0, trace.size() - 1)),
                trace.Total());
  }

  // Release 2: a degree-sequence (unattributed) release at eps = 0.3.
  {
    Status s = accountant.Spend(0.3, "degree sequence (S-bar)");
    std::printf("[2] degree sequence at eps=0.3: %s\n",
                s.ToString().c_str());
    std::vector<double> noisy = SampleNoisySortedCounts(trace, 0.3, &rng);
    std::vector<double> inferred =
        ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
    std::printf("    busiest host ~ %.0f connections (true %.0f)\n",
                inferred.back(), TrueSortedCounts(trace).back());
  }

  // Release 3: the analyst over-reaches; the accountant refuses.
  {
    Status s = accountant.Spend(0.5, "another histogram");
    std::printf("[3] third release at eps=0.5: %s\n", s.ToString().c_str());
  }

  // A smaller release still fits.
  {
    Status s = accountant.Spend(0.2, "follow-up at reduced epsilon");
    std::printf("[4] follow-up at eps=0.2: %s\n", s.ToString().c_str());
  }

  std::printf("\naudit ledger (%0.2f of %0.2f spent):\n", accountant.spent(),
              accountant.total_budget());
  for (const auto& entry : accountant.ledger()) {
    std::printf("  eps=%.2f  %s\n", entry.epsilon, entry.purpose.c_str());
  }
  return 0;
}
