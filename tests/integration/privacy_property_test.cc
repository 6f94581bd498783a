// Statistical verification of the epsilon-differential-privacy guarantee
// (Definition 2.1) on neighboring databases, and of Proposition 2 (post-
// processing cannot weaken it).
//
// For the Laplace mechanism the guarantee is analytic, so these tests act
// as end-to-end checks that noise really is calibrated to sensitivity: we
// estimate output probabilities over a bin grid from many draws and check
// Pr[A(I) in S] <= e^eps * Pr[A(I') in S] + statistical slack.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "domain/histogram.h"
#include "paper/estimators/unattributed.h"
#include "paper/inference/isotonic.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "paper/query/sorted_query.h"
#include "query/unit_query.h"

namespace dphist {
namespace {

constexpr int kTrials = 60000;
constexpr double kBinWidth = 1.0;
constexpr int kBins = 16;  // bins cover [-8, 8) around the true count

// Bins draws of a single output coordinate; a marginal likelihood-ratio
// check is a necessary condition for joint DP and is where calibration
// bugs would show.
std::vector<double> BinnedFrequencies(const QuerySequence& query,
                                      const Histogram& data, double epsilon,
                                      std::size_t coordinate,
                                      std::uint64_t seed) {
  LaplaceMechanism mechanism(epsilon);
  Rng rng(seed);
  std::vector<double> truth = query.Evaluate(data);
  std::vector<double> freq(kBins, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    double offset = noisy[coordinate] - truth[coordinate];
    int bin = static_cast<int>(std::floor(offset / kBinWidth)) + kBins / 2;
    if (bin >= 0 && bin < kBins) freq[static_cast<std::size_t>(bin)] += 1.0;
  }
  for (double& f : freq) f /= kTrials;
  return freq;
}

void ExpectLikelihoodRatioBounded(const std::vector<double>& p,
                                  const std::vector<double>& q,
                                  double epsilon) {
  double bound = std::exp(epsilon);
  for (std::size_t b = 0; b < p.size(); ++b) {
    if (p[b] < 0.005 || q[b] < 0.005) continue;  // skip noisy rare bins
    EXPECT_LE(p[b], bound * q[b] * 1.15) << "bin " << b;
    EXPECT_LE(q[b], bound * p[b] * 1.15) << "bin " << b;
  }
}

TEST(PrivacyPropertyTest, UnitQuerySatisfiesEpsilonDp) {
  Histogram data = Histogram::FromCounts({3, 1, 4, 1});
  Histogram neighbor = data;
  neighbor.Increment(0);  // add one record
  UnitQuery query(4);
  const double eps = 1.0;
  // Shift the neighbor's binned frequencies into the base frame: compare
  // the distribution of (output - truth-of-I) under both databases.
  LaplaceMechanism mechanism(eps);
  Rng rng_a(11), rng_b(12);
  std::vector<double> truth = query.Evaluate(data);
  std::vector<double> freq_base(kBins, 0.0), freq_nbr(kBins, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    double a = mechanism.AnswerQuery(query, data, &rng_a)[0] - truth[0];
    double b = mechanism.AnswerQuery(query, neighbor, &rng_b)[0] - truth[0];
    int bin_a = static_cast<int>(std::floor(a / kBinWidth)) + kBins / 2;
    int bin_b = static_cast<int>(std::floor(b / kBinWidth)) + kBins / 2;
    if (bin_a >= 0 && bin_a < kBins) freq_base[bin_a] += 1.0;
    if (bin_b >= 0 && bin_b < kBins) freq_nbr[bin_b] += 1.0;
  }
  for (double& f : freq_base) f /= kTrials;
  for (double& f : freq_nbr) f /= kTrials;
  ExpectLikelihoodRatioBounded(freq_base, freq_nbr, eps);
}

TEST(PrivacyPropertyTest, HierarchicalQuerySatisfiesEpsilonDp) {
  // H's sensitivity is 3 here; noise is scaled up accordingly, so the
  // per-coordinate likelihood ratio must stay within e^eps even though a
  // record shifts three coordinates at once.
  Histogram data = Histogram::FromCounts({3, 1, 4, 1});
  Histogram neighbor = data;
  neighbor.Increment(2);
  HierarchicalQuery query(4, 2);
  const double eps = 1.0;
  LaplaceMechanism mechanism(eps);
  Rng rng_a(13), rng_b(14);
  std::vector<double> truth = query.Evaluate(data);
  // Track the root coordinate (changes by 1 between neighbors).
  std::vector<double> freq_base(kBins, 0.0), freq_nbr(kBins, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    double a = mechanism.AnswerQuery(query, data, &rng_a)[0] - truth[0];
    double b = mechanism.AnswerQuery(query, neighbor, &rng_b)[0] - truth[0];
    int bin_a = static_cast<int>(std::floor(a / kBinWidth)) + kBins / 2;
    int bin_b = static_cast<int>(std::floor(b / kBinWidth)) + kBins / 2;
    if (bin_a >= 0 && bin_a < kBins) freq_base[bin_a] += 1.0;
    if (bin_b >= 0 && bin_b < kBins) freq_nbr[bin_b] += 1.0;
  }
  for (double& f : freq_base) f /= kTrials;
  for (double& f : freq_nbr) f /= kTrials;
  // The root differs by 1 but noise scale is 3/eps, so the observed ratio
  // must respect exp(eps/3) per unit — comfortably within exp(eps).
  ExpectLikelihoodRatioBounded(freq_base, freq_nbr, eps);
}

TEST(PrivacyPropertyTest, SortedQueryNoiseIsSensitivityCalibrated) {
  // S has sensitivity 1: its noise must match L's scale, NOT shrink
  // because of sorting. Variance of each coordinate's noise = 2/eps^2.
  Histogram data = Histogram::FromCounts({5, 5, 5, 5});
  const double eps = 0.5;
  std::vector<double> freq = BinnedFrequencies(SortedQuery(4), data, eps,
                                               /*coordinate=*/1, 15);
  // Center bins must follow the Laplace(2) shape: P(bin [0,1)) =
  // CDF(1)-CDF(0).
  LaplaceDistribution lap(1.0 / eps);
  double expected = lap.Cdf(1.0) - lap.Cdf(0.0);
  EXPECT_NEAR(freq[kBins / 2], expected, 0.01);
}

TEST(PrivacyPropertyTest, PostProcessingIsDeterministic) {
  // Proposition 2: S-bar is a deterministic function of s~, so it adds no
  // privacy-relevant randomness.
  std::vector<double> noisy = {4.2, -1.0, 3.3, 9.9};
  EXPECT_EQ(IsotonicRegression(noisy), IsotonicRegression(noisy));
}

TEST(PrivacyPropertyTest, InferenceCommutesThroughDpInterface) {
  // The paper notes the server may run inference itself; analyst-side and
  // server-side post-processing must be byte-identical.
  Histogram data = Histogram::FromCounts({2, 0, 10, 2});
  Rng rng(16);
  std::vector<double> noisy = SampleNoisySortedCounts(data, 1.0, &rng);
  std::vector<double> analyst_side =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  std::vector<double> server_side = IsotonicRegression(noisy);
  EXPECT_EQ(analyst_side, server_side);
}

}  // namespace
}  // namespace dphist
