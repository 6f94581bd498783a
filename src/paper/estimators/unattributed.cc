#include "paper/estimators/unattributed.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "paper/inference/isotonic.h"
#include "inference/nonnegative_pruning.h"
#include "mechanism/laplace_mechanism.h"
#include "paper/query/sorted_query.h"

namespace dphist {

std::string UnattributedEstimatorName(UnattributedEstimator estimator) {
  switch (estimator) {
    case UnattributedEstimator::kSTilde:
      return "S~";
    case UnattributedEstimator::kSTildeRounded:
      return "S~r";
    case UnattributedEstimator::kSBar:
      return "S-bar";
  }
  return "?";
}

std::vector<double> TrueSortedCounts(const Histogram& data) {
  return data.SortedCounts();
}

std::vector<double> SampleNoisySortedCounts(const Histogram& data,
                                            double epsilon, Rng* rng) {
  SortedQuery query(data.size());
  LaplaceMechanism mechanism(epsilon);
  return mechanism.AnswerQuery(query, data, rng);
}

std::vector<double> ApplyUnattributedEstimator(
    UnattributedEstimator estimator, const std::vector<double>& noisy) {
  switch (estimator) {
    case UnattributedEstimator::kSTilde:
      return noisy;
    case UnattributedEstimator::kSTildeRounded: {
      std::vector<double> sorted = noisy;
      std::sort(sorted.begin(), sorted.end());
      return RoundToNonNegativeIntegers(std::move(sorted));
    }
    case UnattributedEstimator::kSBar:
      return IsotonicRegression(noisy);
  }
  DPHIST_CHECK_MSG(false, "unknown estimator");
  return {};
}

}  // namespace dphist
