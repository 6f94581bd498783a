// Experiment E8 — Appendix E: H~ vs the Blum et al. equi-depth histogram.
//
// Two parts:
//   (1) the analytic (eps, delta)-usefulness table — the smallest
//       database size N at which each technique guarantees all range
//       queries within alpha*N error w.p. 1-delta. H~ scales as
//       1/(eps*alpha); Blum et al. as 1/(eps*alpha^3).
//   (2) an empirical sweep scaling the same data shape by 1x..16x:
//       BLR's absolute range error grows with N (O(N^{2/3}) analytically)
//       while H~'s is independent of N.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "data/zipf.h"
#include "paper/estimators/blum_histogram.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/experiments/report.h"
#include "paper/experiments/runner.h"

using namespace dphist;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t trials = flags.GetInt("trials", 30, "DPHIST_TRIALS");

  PrintBanner(std::cout,
              "Appendix E (1): analytic (eps,delta)-usefulness bounds");
  std::printf("minimum N for (alpha-DP, eps-useful, delta=0.05)\n\n");
  TablePrinter bounds({"n", "alpha", "eps-useful", "N: H~",
                       "N: Blum et al. (unit const)"});
  for (std::int64_t n : {std::int64_t{1} << 10, std::int64_t{1} << 16}) {
    for (double alpha : {1.0, 0.5, 0.1}) {
      for (double eps_useful : {0.05, 0.01}) {
        bounds.AddRow(
            {std::to_string(n), FormatFixed(alpha), FormatFixed(eps_useful),
             FormatScientific(
                 HTildeUsefulDatabaseSize(n, eps_useful, 0.05, alpha)),
             FormatScientific(
                 BlumUsefulDatabaseSize(n, eps_useful, 0.05, alpha))});
      }
    }
  }
  bounds.Print(std::cout);
  std::printf(
      "\npaper: H~ achieves the same utility with a database smaller by "
      "O(1/eps^2) in alpha scaling terms (1/alpha vs 1/alpha^3)\n");

  PrintBanner(std::cout,
              "Appendix E (2): absolute range error vs database size N");
  const std::int64_t n = 4096;
  Rng data_rng(5);
  std::vector<std::int64_t> base = ZipfCounts(n, 1.2, 20000, &data_rng);

  TablePrinter empirical({"N (records)", "mean |err| BLR", "mean |err| H~",
                          "BLR/H~"});
  double first_blr = 0.0, last_blr = 0.0;
  double first_ht = 0.0, last_ht = 0.0;
  for (std::int64_t factor : {1, 4, 16}) {
    std::vector<std::int64_t> scaled = base;
    for (auto& c : scaled) c *= factor;
    Histogram data = Histogram::FromCounts(scaled);

    BlumHistogramConfig blum_config;
    blum_config.epsilon = 1.0;
    blum_config.num_bins = 16;
    UniversalOptions h_options;
    h_options.epsilon = 1.0;
    h_options.round_to_nonnegative_integers = false;

    Rng rng(11);
    RunningStat err_blr, err_ht;
    for (std::int64_t t = 0; t < trials; ++t) {
      BlumEquiDepthHistogram blr(data, blum_config, &rng);
      HTildeEstimator ht(data, h_options, &rng);
      std::vector<Interval> ranges = RandomRangesOfSize(n, 256, 50, &rng);
      for (const Interval& q : ranges) {
        double truth = data.Count(q);
        err_blr.Add(std::abs(blr.RangeCount(q) - truth));
        err_ht.Add(std::abs(ht.RangeCount(q) - truth));
      }
    }
    empirical.AddRow({std::to_string(data.Total() > 0
                                         ? static_cast<long long>(data.Total())
                                         : 0LL),
                      FormatScientific(err_blr.Mean()),
                      FormatScientific(err_ht.Mean()),
                      FormatRatio(err_blr.Mean() / err_ht.Mean())});
    if (factor == 1) {
      first_blr = err_blr.Mean();
      first_ht = err_ht.Mean();
    }
    last_blr = err_blr.Mean();
    last_ht = err_ht.Mean();
  }
  empirical.Print(std::cout);

  PrintBanner(std::cout, "paper-vs-measured");
  std::printf(
      "  paper: BLR's absolute error grows with database size "
      "(O(N^{2/3})); H~'s is independent of N\n");
  std::printf("  measured: BLR error grew %.1fx across 16x scaling; H~ "
              "error changed %.2fx\n",
              last_blr / first_blr, last_ht / first_ht);
  std::printf("  BLR grows while H~ stays flat: %s\n",
              (last_blr > 3.0 * first_blr &&
               last_ht < 1.5 * first_ht)
                  ? "YES"
                  : "NO");
  return 0;
}
