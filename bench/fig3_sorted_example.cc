// Experiment E1 — Figure 3: one illustrative draw of constrained
// inference on a sorted sequence.
//
// The paper's figure shows a 25-element sequence S(I) whose first twenty
// counts are uniform and whose last five are distinct: the noisy draw s~
// scatters around the truth, while the inferred s-bar hugs S(I) over the
// uniform run (inference averages the noise away) and reverts to s~ at
// the unique counts (s-bar[21] = s~[21]).

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/estimators/unattributed.h"
#include "paper/experiments/report.h"
#include "paper/inference/isotonic.h"

using namespace dphist;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const double epsilon = flags.GetDouble("epsilon", 1.0);
  const std::int64_t trials = flags.GetInt("trials", 50, "DPHIST_TRIALS");

  // S(I): twenty counts of 10 followed by five distinct counts, the shape
  // Figure 3 plots.
  std::vector<std::int64_t> counts(25, 10);
  counts[20] = 13;
  counts[21] = 15;
  counts[22] = 17;
  counts[23] = 19;
  counts[24] = 21;
  Histogram data = Histogram::FromCounts(counts);
  std::vector<double> truth = TrueSortedCounts(data);

  PrintBanner(std::cout, "Figure 3: s-bar vs s~ on a mostly-uniform S(I)");
  std::printf("eps=%s; one illustrative draw, then %lld-trial averages\n\n",
              FormatFixed(epsilon).c_str(), static_cast<long long>(trials));

  Rng rng(7);
  std::vector<double> noisy = SampleNoisySortedCounts(data, epsilon, &rng);
  std::vector<double> fitted = IsotonicRegression(noisy);

  TablePrinter table({"index", "S(I)", "s~ (noisy)", "s-bar (inferred)"});
  for (std::size_t i = 0; i < truth.size(); ++i) {
    table.AddRow({std::to_string(i + 1), FormatFixed(truth[i]),
                  FormatFixed(noisy[i]), FormatFixed(fitted[i])});
  }
  table.Print(std::cout);

  // Average per-position error over many draws, split into the uniform
  // run and the distinct tail.
  RunningStat uniform_err, distinct_err, noisy_err;
  Rng master(11);
  for (std::int64_t t = 0; t < trials; ++t) {
    Rng trial = master.Fork();
    std::vector<double> s = SampleNoisySortedCounts(data, epsilon, &trial);
    std::vector<double> f = IsotonicRegression(s);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      double d = f[i] - truth[i];
      (i < 20 ? uniform_err : distinct_err).Add(d * d);
      double dn = s[i] - truth[i];
      noisy_err.Add(dn * dn);
    }
  }
  PrintBanner(std::cout, "paper-vs-measured");
  std::printf("  per-count error of s~ (theory 2/eps^2 = %s): %s\n",
              FormatFixed(2.0 / (epsilon * epsilon)).c_str(),
              FormatFixed(noisy_err.Mean()).c_str());
  std::printf("  s-bar error inside the uniform run: %s\n",
              FormatFixed(uniform_err.Mean()).c_str());
  std::printf("  s-bar error at the distinct tail:   %s\n",
              FormatFixed(distinct_err.Mean()).c_str());
  std::printf(
      "  paper: inference averages noise away over uniform runs but not "
      "at unique counts\n  measured: uniform-run error %s the noisy "
      "baseline; tail error comparable to baseline\n",
      uniform_err.Mean() < 0.5 * noisy_err.Mean() ? "well below"
                                                  : "NOT below (unexpected)");
  return 0;
}
