// Experiment E6 — Theorem 2's scaling law.
//
//   error(S-bar) <= sum_i (c1 log^3 n_i + c2) / eps^2 = O(d log^3 n / eps^2)
//   error(S~)     = Theta(n / eps^2)
//
// Two sweeps verify the shape empirically:
//   (1) fix d (# distinct counts), grow n: error(S-bar) grows
//       poly-logarithmically while error(S~) grows linearly;
//   (2) fix n, grow d: error(S-bar) grows ~linearly in d.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/laplace.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/experiments/report.h"
#include "paper/inference/isotonic.h"

using namespace dphist;  // NOLINT(build/namespaces)

namespace {

std::vector<double> StepSequence(std::size_t n, std::size_t d) {
  std::vector<double> truth(n);
  std::size_t run = n / d;
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<double>(std::min(i / run, d - 1)) * 50.0;
  }
  return truth;
}

double MeasuredError(const std::vector<double>& truth, double eps,
                     std::int64_t trials, std::uint64_t seed) {
  Rng master(seed);
  LaplaceDistribution noise(1.0 / eps);
  RunningStat err;
  for (std::int64_t t = 0; t < trials; ++t) {
    Rng trial = master.Fork();
    std::vector<double> noisy = truth;
    for (double& x : noisy) x += noise.Sample(&trial);
    err.Add(SquaredError(IsotonicRegression(noisy), truth));
  }
  return err.Mean();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const double eps = flags.GetDouble("epsilon", 1.0);
  const std::int64_t trials = flags.GetInt("trials", 40, "DPHIST_TRIALS");

  PrintBanner(std::cout, "Theorem 2: error(S-bar) = O(d log^3 n / eps^2)");
  std::printf("eps=%s, %lld trials per point\n",
              FormatFixed(eps).c_str(), static_cast<long long>(trials));

  PrintBanner(std::cout, "sweep 1: fixed d = 4, growing n");
  TablePrinter sweep_n({"n", "error(S-bar)", "error(S~) = 2n/eps^2",
                        "d*log^3(n)/eps^2", "S~/S-bar"});
  double prev_err = 0.0, prev_n = 0.0;
  double worst_growth = 0.0;
  for (std::size_t n : {1024u, 4096u, 16384u, 65536u}) {
    double err = MeasuredError(StepSequence(n, 4), eps, trials, n);
    double stilde = 2.0 * static_cast<double>(n) / (eps * eps);
    double lg = std::log2(static_cast<double>(n));
    sweep_n.AddRow({std::to_string(n), FormatScientific(err),
                    FormatScientific(stilde),
                    FormatScientific(4.0 * lg * lg * lg / (eps * eps)),
                    FormatRatio(stilde / err)});
    if (prev_n > 0.0) {
      // Growth exponent between consecutive points (1.0 = linear).
      double exponent = std::log(err / prev_err) /
                        std::log(static_cast<double>(n) / prev_n);
      worst_growth = std::max(worst_growth, exponent);
    }
    prev_err = err;
    prev_n = static_cast<double>(n);
  }
  sweep_n.Print(std::cout);

  PrintBanner(std::cout, "sweep 2: fixed n = 16384, growing d");
  TablePrinter sweep_d({"d", "error(S-bar)", "error/d"});
  for (std::size_t d : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    double err = MeasuredError(StepSequence(16384, d), eps, trials, 100 + d);
    sweep_d.AddRow({std::to_string(d), FormatScientific(err),
                    FormatScientific(err / static_cast<double>(d))});
  }
  sweep_d.Print(std::cout);

  PrintBanner(std::cout, "paper-vs-measured");
  std::printf(
      "  paper: error(S-bar) poly-log in n for fixed d; error(S~) linear\n");
  std::printf(
      "  measured: growth exponent of error(S-bar) in n: %.2f "
      "(linear would be 1.0) -> sublinear: %s\n",
      worst_growth, worst_growth < 0.7 ? "YES" : "NO");
  return 0;
}
