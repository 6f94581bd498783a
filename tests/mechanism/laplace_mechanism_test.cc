#include "mechanism/laplace_mechanism.h"

#include <gtest/gtest.h>

#include "paper/common/statistics.h"
#include "query/hierarchical_query.h"
#include "paper/query/sorted_query.h"
#include "query/unit_query.h"

namespace dphist {
namespace {

TEST(LaplaceMechanismTest, NoiseScaleIsSensitivityOverEpsilon) {
  LaplaceMechanism mechanism(0.5);
  UnitQuery l(16);
  HierarchicalQuery h(16, 2);  // height 5
  EXPECT_DOUBLE_EQ(mechanism.NoiseScale(l), 2.0);
  EXPECT_DOUBLE_EQ(mechanism.NoiseScale(h), 10.0);
}

TEST(LaplaceMechanismTest, NoiseVarianceFormula) {
  // error per answer = 2 (Delta/eps)^2; for L at eps=1 that's 2.
  LaplaceMechanism mechanism(1.0);
  UnitQuery l(16);
  const double b = mechanism.NoiseScale(l);
  EXPECT_DOUBLE_EQ(2.0 * b * b, 2.0);
}

TEST(LaplaceMechanismTest, AnswerHasQueryLength) {
  Histogram data = Histogram::FromCounts({2, 0, 10, 2});
  LaplaceMechanism mechanism(1.0);
  Rng rng(1);
  EXPECT_EQ(mechanism.AnswerQuery(UnitQuery(4), data, &rng).size(), 4u);
  EXPECT_EQ(mechanism.AnswerQuery(HierarchicalQuery(4, 2), data, &rng).size(),
            7u);
  EXPECT_EQ(mechanism.AnswerQuery(SortedQuery(4), data, &rng).size(), 4u);
}

TEST(LaplaceMechanismTest, NoiseIsCenteredOnTruth) {
  Histogram data = Histogram::FromCounts({5, 5, 5, 5});
  UnitQuery query(4);
  LaplaceMechanism mechanism(1.0);
  Rng rng(7);
  RunningStat per_answer[4];
  for (int t = 0; t < 20000; ++t) {
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    for (int i = 0; i < 4; ++i) per_answer[i].Add(noisy[i]);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(per_answer[i].Mean(), 5.0, 0.06);
    EXPECT_NEAR(per_answer[i].Variance(), 2.0, 0.15);
  }
}

TEST(LaplaceMechanismTest, EmpiricalErrorMatchesSection21Formula) {
  // error(L~) = 2 n / eps^2 (total squared error over the n answers).
  const std::int64_t n = 64;
  const double eps = 0.5;
  Histogram data = Histogram::FromCounts(
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 3));
  UnitQuery query(n);
  LaplaceMechanism mechanism(eps);
  Rng rng(11);
  RunningStat total_error;
  std::vector<double> truth = query.Evaluate(data);
  for (int t = 0; t < 4000; ++t) {
    total_error.Add(
        SquaredError(mechanism.AnswerQuery(query, data, &rng), truth));
  }
  double expected = 2.0 * static_cast<double>(n) / (eps * eps);
  EXPECT_NEAR(total_error.Mean(), expected, expected * 0.05);
}

TEST(LaplaceMechanismTest, SmallerEpsilonMeansMoreNoise) {
  Histogram data = Histogram::FromCounts({10, 10, 10, 10, 10, 10, 10, 10});
  UnitQuery query(8);
  std::vector<double> truth = query.Evaluate(data);
  Rng rng(13);
  RunningStat strict_error, loose_error;
  for (int t = 0; t < 2000; ++t) {
    strict_error.Add(SquaredError(
        LaplaceMechanism(0.1).AnswerQuery(query, data, &rng), truth));
    loose_error.Add(SquaredError(
        LaplaceMechanism(1.0).AnswerQuery(query, data, &rng), truth));
  }
  EXPECT_GT(strict_error.Mean(), 10.0 * loose_error.Mean());
}

TEST(LaplaceMechanismTest, PerturbUsesGivenScale) {
  LaplaceMechanism mechanism(1.0);
  Rng rng(17);
  RunningStat stat;
  std::vector<double> zeros(1, 0.0);
  for (int t = 0; t < 50000; ++t) {
    stat.Add(mechanism.Perturb(zeros, 3.0, &rng)[0]);
  }
  EXPECT_NEAR(stat.Variance(), 2.0 * 9.0, 0.5);
}

TEST(LaplaceMechanismTest, DeterministicGivenSeed) {
  Histogram data = Histogram::FromCounts({1, 2, 3, 4});
  UnitQuery query(4);
  LaplaceMechanism mechanism(1.0);
  Rng rng_a(23), rng_b(23);
  EXPECT_EQ(mechanism.AnswerQuery(query, data, &rng_a),
            mechanism.AnswerQuery(query, data, &rng_b));
}

TEST(LaplaceMechanismDeathTest, RejectsNonPositiveEpsilon) {
  EXPECT_DEATH(LaplaceMechanism(0.0), "positive");
  EXPECT_DEATH(LaplaceMechanism(-1.0), "positive");
}

}  // namespace
}  // namespace dphist
