// Unattributed-histogram estimators (Section 3, Figure 5).
//
// The pipeline is: draw s~ = S~(I) once (the only privacy-relevant step),
// then apply any of three post-processors:
//   S~   : the noisy answer as-is (baseline),
//   S~r  : sort + round to non-negative integers (consistency by fiat),
//   S-bar: isotonic regression (the paper's constrained inference).
// Separating sampling from estimation lets experiments evaluate all three
// estimators on the *same* noisy draw, exactly as the paper does.

#ifndef DPHIST_PAPER_ESTIMATORS_UNATTRIBUTED_H_
#define DPHIST_PAPER_ESTIMATORS_UNATTRIBUTED_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "domain/histogram.h"

namespace dphist {

/// The three Fig. 5 estimators.
enum class UnattributedEstimator {
  kSTilde,         // noisy answer, no post-processing
  kSTildeRounded,  // sort then round to non-negative integers
  kSBar,           // isotonic regression (constrained inference)
};

/// All estimators in the order Fig. 5 plots them.
inline constexpr UnattributedEstimator kAllUnattributedEstimators[] = {
    UnattributedEstimator::kSTilde, UnattributedEstimator::kSTildeRounded,
    UnattributedEstimator::kSBar};

/// Display name ("S~", "S~r", "S-bar").
std::string UnattributedEstimatorName(UnattributedEstimator estimator);

/// The true sorted sequence S(I).
std::vector<double> TrueSortedCounts(const Histogram& data);

/// Draws s~ = S(I) + Lap(1/epsilon)^n — an epsilon-DP answer to S.
std::vector<double> SampleNoisySortedCounts(const Histogram& data,
                                            double epsilon, Rng* rng);

/// Applies the chosen post-processor to a noisy draw.
std::vector<double> ApplyUnattributedEstimator(
    UnattributedEstimator estimator, const std::vector<double>& noisy);

}  // namespace dphist

#endif  // DPHIST_PAPER_ESTIMATORS_UNATTRIBUTED_H_
