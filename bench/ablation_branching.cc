// Experiment E13 — Appendix B future work: "investigate optimizations
// such as higher branching factors".
//
// The trade-off: higher k lowers the tree height ell (sensitivity, so
// less noise per count) but raises the number of subtree counts a range
// needs (up to 2(k-1) per level) and weakens inference (fewer levels to
// average over). We sweep k and report range-query error of H~ and H-bar
// on NetTrace.

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/nettrace.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "paper/experiments/report.h"
#include "paper/experiments/runner.h"

using namespace dphist;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t trials = flags.GetInt("trials", 15, "DPHIST_TRIALS");
  const std::int64_t ranges_per_size =
      flags.GetInt("ranges", 150, "DPHIST_RANGES");
  const double eps = flags.GetDouble("epsilon", 0.1);

  NetTraceConfig nettrace;
  nettrace.num_hosts = 16384;
  nettrace.num_connections = 80000;
  Histogram data = GenerateNetTrace(nettrace);

  PrintBanner(std::cout,
              "Appendix B future work: branching factor sweep for H");
  std::printf("n=%lld eps=%s trials=%lld ranges/size=%lld\n\n",
              static_cast<long long>(data.size()), FormatFixed(eps).c_str(),
              static_cast<long long>(trials),
              static_cast<long long>(ranges_per_size));

  TablePrinter table({"k", "height ell", "error H~ (size 64)",
                      "error H~ (size 4096)", "error H-bar (size 64)",
                      "error H-bar (size 4096)"});
  double best_hbar_large = 1e300;
  std::int64_t best_k = 0;
  for (std::int64_t k : {2, 4, 8, 16, 64}) {
    UniversalOptions options;
    options.epsilon = eps;
    options.branching = k;
    options.round_to_nonnegative_integers = false;
    options.prune_nonpositive_subtrees = false;

    Rng rng(static_cast<std::uint64_t>(k) * 17 + 3);
    RunningStat ht_small, ht_large, hb_small, hb_large;
    std::int64_t height = 0;
    for (std::int64_t t = 0; t < trials; ++t) {
      HTildeEstimator h_tilde(data, options, &rng);
      HBarEstimator h_bar(data, options, &rng);
      height = h_bar.tree().height();
      for (std::int64_t size : {std::int64_t{64}, std::int64_t{4096}}) {
        std::vector<Interval> ranges =
            RandomRangesOfSize(data.size(), size, ranges_per_size, &rng);
        for (const Interval& q : ranges) {
          double truth = data.Count(q);
          double dt = h_tilde.RangeCount(q) - truth;
          double db = h_bar.RangeCount(q) - truth;
          (size == 64 ? ht_small : ht_large).Add(dt * dt);
          (size == 64 ? hb_small : hb_large).Add(db * db);
        }
      }
    }
    if (hb_large.Mean() < best_hbar_large) {
      best_hbar_large = hb_large.Mean();
      best_k = k;
    }
    table.AddRow({std::to_string(k), std::to_string(height),
                  FormatScientific(ht_small.Mean()),
                  FormatScientific(ht_large.Mean()),
                  FormatScientific(hb_small.Mean()),
                  FormatScientific(hb_large.Mean())});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "findings");
  std::printf(
      "  best k for H-bar at large ranges on this data: k = %lld\n",
      static_cast<long long>(best_k));
  std::printf(
      "  the sweet spot balances lower sensitivity (higher k) against "
      "more subtree terms per range and weaker inference; k in the 4-16 "
      "band typically beats binary trees, which matches later literature "
      "(e.g. Qardaji et al.'s analysis of hierarchy fanout).\n");
  return 0;
}
