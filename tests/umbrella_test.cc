// Compilation test for the umbrella headers: every public type must be
// reachable from the core umbrella and the paper umbrella on top of it,
// and a miniature end-to-end pipeline must work with only those
// includes.

#include "dphist.h"
#include "paper/paper.h"

#include <gtest/gtest.h>

namespace dphist {
namespace {

TEST(UmbrellaTest, WholePipelineThroughSingleInclude) {
  Histogram data = Histogram::FromCounts({2, 0, 10, 2});
  Rng rng(1);

  // Unattributed path.
  std::vector<double> s = SampleNoisySortedCounts(data, 1.0, &rng);
  std::vector<double> sbar =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, s);
  EXPECT_EQ(sbar.size(), 4u);

  // Universal path.
  UniversalOptions options;
  HBarEstimator hbar(data, options, &rng);
  EXPECT_GE(hbar.RangeCount(Interval(0, 3)), 0.0);

  // Budgeting.
  PrivacyAccountant accountant(2.0);
  EXPECT_TRUE(accountant.Spend(1.0, "both tasks").ok());

  // Analysis.
  auto analyzer = StrategyAnalyzer::Create(HierarchicalStrategy(4, 2), 1.0);
  ASSERT_TRUE(analyzer.ok());
  EXPECT_GT(analyzer.value().RangeVariance(Interval(0, 3)), 0.0);

  // Serving.
  QueryService service;
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 1).ok());
  double answer = 0.0;
  const Interval range(0, 3);
  EXPECT_EQ(service.TryQueryBatch(&range, 1, &answer).value(), 1u);
  EXPECT_GE(answer, 0.0);
}

}  // namespace
}  // namespace dphist
