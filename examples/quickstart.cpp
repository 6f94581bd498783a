// Quickstart: the paper's student-grades example in ~60 lines.
//
// A data owner holds per-student grades. An analyst wants the total
// number of students, the number passing, and the per-grade counts —
// all under epsilon-differential privacy. We ask all seven queries at
// once (sensitivity 3), then use constrained inference to resolve the
// inconsistencies the noise introduces. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/rng.h"
#include "paper/inference/constrained_ls.h"
#include "mechanism/laplace_mechanism.h"

int main() {
  using namespace dphist;

  // The private data: true answers to (x_t, x_p, x_A, x_B, x_C, x_D, x_F).
  const std::vector<double> truth = {200, 170, 60, 55, 35, 20, 30};

  // One student affects her grade count, the passing count, and the
  // total: sensitivity 3. The Laplace mechanism adds Lap(3/eps) noise.
  const double epsilon = 0.5;
  const double sensitivity = 3.0;
  LaplaceMechanism mechanism(epsilon);
  Rng rng(2024);
  std::vector<double> noisy =
      mechanism.Perturb(truth, sensitivity / epsilon, &rng);

  // The consistency constraints are properties of the queries, known to
  // the analyst a priori: x_t = x_p + x_F and x_p = x_A+x_B+x_C+x_D.
  ConstraintSystem constraints(7);
  constraints.AddSumConstraint(0, {1, 6});
  constraints.AddSumConstraint(1, {2, 3, 4, 5});

  // Constrained inference: the closest consistent answer (pure
  // post-processing — the epsilon-DP guarantee is untouched).
  auto inferred = ConstrainedLeastSquares(constraints, noisy);
  if (!inferred.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 inferred.status().ToString().c_str());
    return 1;
  }

  const char* names[7] = {"total", "passing", "A", "B", "C", "D", "F"};
  std::printf("%-8s  %8s  %10s  %10s\n", "query", "truth", "noisy",
              "inferred");
  for (int i = 0; i < 7; ++i) {
    std::printf("%-8s  %8.0f  %10.2f  %10.2f\n", names[i], truth[i],
                noisy[i], inferred.value()[i]);
  }
  std::printf(
      "\nnoisy answers violate the constraints by %.2f; "
      "inferred answers by %.2g\n",
      constraints.MaxViolation(noisy),
      constraints.MaxViolation(inferred.value()));
  return 0;
}
