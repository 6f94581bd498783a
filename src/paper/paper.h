// Umbrella header for dphist_paper: the paper-only modules and the
// figure reproductions, on top of the core umbrella.
//
//   #include "paper/paper.h"
//
// Nothing under src/ outside src/paper/ may include this directory
// (dphist_lint's paper-include rule); the server never links it.

#ifndef DPHIST_PAPER_PAPER_H_
#define DPHIST_PAPER_PAPER_H_

#include "dphist.h"  // IWYU pragma: export

// Substrate.
#include "paper/common/statistics.h"  // IWYU pragma: export
#include "paper/domain/grid.h"        // IWYU pragma: export
#include "paper/tree/quadtree.h"      // IWYU pragma: export

// Unattributed histograms (Section 5).
#include "paper/query/sorted_query.h"         // IWYU pragma: export
#include "paper/inference/isotonic.h"         // IWYU pragma: export
#include "paper/inference/minmax_isotonic.h"  // IWYU pragma: export
#include "paper/estimators/unattributed.h"    // IWYU pragma: export

// General constrained inference and the matrix-mechanism analysis.
#include "paper/analysis/strategy_matrix.h"   // IWYU pragma: export
#include "paper/inference/constrained_ls.h"   // IWYU pragma: export
#include "paper/inference/graphical.h"        // IWYU pragma: export

// Other estimators the paper compares against or extends to.
#include "paper/estimators/blum_histogram.h"     // IWYU pragma: export
#include "paper/estimators/continual_counter.h"  // IWYU pragma: export
#include "paper/estimators/universal2d.h"        // IWYU pragma: export

// Experiment runners and the synthetic datasets.
#include "paper/data/nettrace.h"        // IWYU pragma: export
#include "paper/data/search_logs.h"     // IWYU pragma: export
#include "paper/data/social_network.h"  // IWYU pragma: export
#include "paper/data/spatial.h"         // IWYU pragma: export
#include "paper/experiments/report.h"   // IWYU pragma: export
#include "paper/experiments/runner.h"   // IWYU pragma: export

#endif  // DPHIST_PAPER_PAPER_H_
