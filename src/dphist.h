// Umbrella header for dphist_core: everything a typical dphist user
// needs to publish and serve DP range counts.
//
//   #include "dphist.h"
//
// The paper-only modules (dphist_paper) have their own umbrella,
// "paper/paper.h". Fine-grained headers remain available for users who
// want to keep compile times tight; this file simply aggregates the
// public API in dependency order.

#ifndef DPHIST_DPHIST_H_
#define DPHIST_DPHIST_H_

// Substrate.
#include "common/laplace.h"      // IWYU pragma: export
#include "common/parallel.h"     // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "domain/histogram.h"    // IWYU pragma: export
#include "domain/interval.h"     // IWYU pragma: export
#include "tree/range_decomposition.h"  // IWYU pragma: export
#include "tree/tree_layout.h"    // IWYU pragma: export

// Queries and privacy mechanisms.
#include "mechanism/laplace_mechanism.h"   // IWYU pragma: export
#include "mechanism/privacy_accountant.h"  // IWYU pragma: export
#include "query/hierarchical_query.h"      // IWYU pragma: export
#include "query/unit_query.h"              // IWYU pragma: export

// Constrained inference (the paper's contribution).
#include "inference/hierarchical.h"        // IWYU pragma: export
#include "inference/nonnegative_pruning.h" // IWYU pragma: export

// Estimators.
#include "estimators/range_engine.h"  // IWYU pragma: export
#include "estimators/universal.h"     // IWYU pragma: export
#include "estimators/wavelet.h"       // IWYU pragma: export

// Serving layer.
#include "service/query_service.h"  // IWYU pragma: export
#include "service/snapshot.h"       // IWYU pragma: export

// Data input.
#include "data/csv.h"   // IWYU pragma: export
#include "data/zipf.h"  // IWYU pragma: export

#endif  // DPHIST_DPHIST_H_
