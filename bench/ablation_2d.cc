// Experiment E12 — Appendix B future work: multi-dimensional range
// queries. The 1-D story replayed in 2-D with a quadtree: per-cell noise
// (L2d~) wins tiny rectangles, the quadtree (Q2d~) wins large ones, and
// constrained inference (Q2d-bar, Theorem 3 on the k=4 tree) improves the
// quadtree uniformly.

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/spatial.h"
#include "paper/estimators/universal2d.h"
#include "paper/experiments/report.h"

using namespace dphist;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::int64_t trials = flags.GetInt("trials", 20, "DPHIST_TRIALS");
  const std::int64_t rects_per_size =
      flags.GetInt("ranges", 100, "DPHIST_RANGES");

  SpatialConfig spatial;
  spatial.side = 256;
  spatial.num_points = 200000;
  GridHistogram data = GenerateSpatialBlobs(spatial);

  PrintBanner(std::cout,
              "Appendix B future work: 2-D universal histograms (quadtree)");
  std::printf("grid %lldx%lld, %.0f points, trials=%lld rects/size=%lld\n\n",
              static_cast<long long>(data.rows()),
              static_cast<long long>(data.cols()), data.Total(),
              static_cast<long long>(trials),
              static_cast<long long>(rects_per_size));

  TablePrinter table({"eps", "square side", "L2d~", "Q2d~", "Q2d-bar",
                      "Q2d-bar/Q2d~"});
  bool inference_uniform_win = true;
  std::int64_t crossover_side = -1;
  for (double eps : {1.0, 0.1}) {
    for (std::int64_t side : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
      Universal2dOptions options;
      options.epsilon = eps;
      options.round_to_nonnegative_integers = false;
      options.prune_nonpositive_subtrees = false;

      Rng rng(static_cast<std::uint64_t>(side) * 131 + 7);
      RunningStat err_l, err_qt, err_qb;
      for (std::int64_t t = 0; t < trials; ++t) {
        L2dEstimator l2d(data, options, &rng);
        Quad2dTildeEstimator q_tilde(data, options, &rng);
        Quad2dBarEstimator q_bar(data, options, &rng);
        for (std::int64_t q = 0; q < rects_per_size; ++q) {
          std::int64_t r0 =
              side == data.rows() ? 0 : rng.NextInt(0, data.rows() - side);
          std::int64_t c0 =
              side == data.cols() ? 0 : rng.NextInt(0, data.cols() - side);
          Rect rect(r0, r0 + side - 1, c0, c0 + side - 1);
          double truth = data.Count(rect);
          double dl = l2d.RectCount(rect) - truth;
          double dt = q_tilde.RectCount(rect) - truth;
          double db = q_bar.RectCount(rect) - truth;
          err_l.Add(dl * dl);
          err_qt.Add(dt * dt);
          err_qb.Add(db * db);
        }
      }
      if (err_qb.Mean() > err_qt.Mean() * 1.05) inference_uniform_win = false;
      if (eps == 1.0 && crossover_side < 0 &&
          err_qt.Mean() < err_l.Mean()) {
        crossover_side = side;
      }
      table.AddRow({FormatFixed(eps), std::to_string(side),
                    FormatScientific(err_l.Mean()),
                    FormatScientific(err_qt.Mean()),
                    FormatScientific(err_qb.Mean()),
                    FormatFixed(err_qb.Mean() / err_qt.Mean())});
    }
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "findings");
  std::printf("  inference uniformly improves the quadtree: %s "
              "(Theorem 3 carries over to k=4 unchanged)\n",
              inference_uniform_win ? "YES" : "NO");
  if (crossover_side > 0) {
    std::printf("  L2d~/Q2d~ crossover at square side %lld\n",
                static_cast<long long>(crossover_side));
  } else {
    std::printf(
        "  no L2d~/Q2d~ crossover before the full grid: in 2-D a "
        "rectangle decomposes into O(side) quadtree nodes (a perimeter, "
        "not 2 log n), so the hierarchy's advantage shrinks with "
        "dimension — the quantitative reason the paper's 1-D crossover "
        "does not directly transfer, later formalized by Qardaji et "
        "al.'s fanout analysis\n");
  }
  return 0;
}
