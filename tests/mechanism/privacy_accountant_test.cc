#include "mechanism/privacy_accountant.h"

#include <gtest/gtest.h>

#include <limits>

namespace dphist {
namespace {

TEST(PrivacyAccountantTest, StartsEmpty) {
  PrivacyAccountant accountant(1.0);
  EXPECT_DOUBLE_EQ(accountant.total_budget(), 1.0);
  EXPECT_DOUBLE_EQ(accountant.spent(), 0.0);
  EXPECT_DOUBLE_EQ(accountant.remaining(), 1.0);
  EXPECT_TRUE(accountant.ledger().empty());
}

TEST(PrivacyAccountantTest, SequentialCompositionAccumulates) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Spend(0.25, "degree sequence").ok());
  EXPECT_TRUE(accountant.Spend(0.5, "universal histogram").ok());
  EXPECT_DOUBLE_EQ(accountant.spent(), 0.75);
  EXPECT_DOUBLE_EQ(accountant.remaining(), 0.25);
  ASSERT_EQ(accountant.ledger().size(), 2u);
  EXPECT_EQ(accountant.ledger()[0].purpose, "degree sequence");
  EXPECT_DOUBLE_EQ(accountant.ledger()[1].epsilon, 0.5);
}

TEST(PrivacyAccountantTest, RefusesOverspend) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Spend(0.9, "first").ok());
  Status s = accountant.Spend(0.2, "too much");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // The failed spend must not be recorded.
  EXPECT_DOUBLE_EQ(accountant.spent(), 0.9);
  EXPECT_EQ(accountant.ledger().size(), 1u);
}

TEST(PrivacyAccountantTest, ExactBudgetIsAllowed) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Spend(0.5, "a").ok());
  EXPECT_TRUE(accountant.Spend(0.5, "b").ok());
  EXPECT_NEAR(accountant.remaining(), 0.0, 1e-12);
  EXPECT_FALSE(accountant.CanSpend(0.01));
}

TEST(PrivacyAccountantTest, ManySmallSpendsWithFloatDrift) {
  PrivacyAccountant accountant(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.Spend(0.1, "slice").ok()) << "slice " << i;
  }
  EXPECT_FALSE(accountant.Spend(0.1, "eleventh").ok());
}

TEST(PrivacyAccountantTest, RejectsNonPositiveEpsilon) {
  PrivacyAccountant accountant(1.0);
  EXPECT_EQ(accountant.Spend(0.0, "zero").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.Spend(-0.5, "negative").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(accountant.CanSpend(0.0));
}

TEST(PrivacyAccountantDeathTest, RejectsNonPositiveBudget) {
  EXPECT_DEATH(PrivacyAccountant(0.0), "positive");
}

TEST(PrivacyAccountantTest, CompensatedSumIsExactForManyTinySpends) {
  // 1000 x 0.001 drifts visibly under naive double accumulation
  // (1000 * 0.001 != 1.0 in naive left-to-right summation); the
  // Neumaier fold keeps the gate exact, so all 1000 spends are
  // admitted and the 1001st is refused.
  PrivacyAccountant accountant(1.0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(accountant.Spend(0.001, "tiny").ok()) << "spend " << i;
  }
  EXPECT_FALSE(accountant.CanSpend(0.001));
  EXPECT_FALSE(accountant.Spend(0.001, "over").ok());
  EXPECT_EQ(accountant.ledger().size(), 1000u);
}

TEST(PrivacyAccountantTest, RemainingIsNeverNegative) {
  PrivacyAccountant accountant(0.15);
  EXPECT_TRUE(accountant.Spend(0.1, "a").ok());
  EXPECT_TRUE(accountant.Spend(accountant.remaining(), "rest").ok());
  EXPECT_GE(accountant.remaining(), 0.0);
  EXPECT_EQ(accountant.remaining(), 0.0);
}

TEST(PrivacyAccountantTest, RollbackRestoresExactPriorState) {
  PrivacyAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Spend(0.1, "a").ok());
  EXPECT_TRUE(accountant.Spend(0.2, "b").ok());
  const double spent_two = accountant.spent();
  EXPECT_TRUE(accountant.Spend(0.3, "doomed").ok());
  ASSERT_TRUE(accountant.RollbackLast().ok());
  // Bit-identical, not approximately equal: rollback refolds the
  // remaining ledger, exactly what replaying a truncated WAL computes.
  EXPECT_EQ(accountant.spent(), spent_two);
  ASSERT_EQ(accountant.ledger().size(), 2u);
  EXPECT_EQ(accountant.ledger().back().purpose, "b");
}

TEST(PrivacyAccountantTest, RollbackOnEmptyLedgerFails) {
  PrivacyAccountant accountant(1.0);
  EXPECT_FALSE(accountant.RollbackLast().ok());
}

TEST(PrivacyAccountantTest, ImportLedgerReproducesSpentBitForBit) {
  PrivacyAccountant original(1.0);
  EXPECT_TRUE(original.Spend(0.1, "publish (initial)").ok());
  EXPECT_TRUE(original.Spend(0.07, "replan (every)").ok());
  EXPECT_TRUE(original.Spend(0.003, "replan (drift)").ok());

  PrivacyAccountant restored(1.0);
  std::vector<PrivacyAccountant::Entry> ledger = original.ledger();
  ASSERT_TRUE(restored.ImportLedger(std::move(ledger)).ok());
  EXPECT_EQ(restored.spent(), original.spent());
  EXPECT_EQ(restored.remaining(), original.remaining());
  ASSERT_EQ(restored.ledger().size(), 3u);
  EXPECT_EQ(restored.ledger()[1].purpose, "replan (every)");
}

TEST(PrivacyAccountantTest, ImportIsNotReGatedAgainstTheBudget) {
  // A persisted ledger describes releases that already happened; a
  // shrunken budget must not reject history, only future spends.
  PrivacyAccountant accountant(0.5);
  ASSERT_TRUE(accountant
                  .ImportLedger({{0.4, "old publish"}, {0.4, "old replan"}})
                  .ok());
  EXPECT_EQ(accountant.spent(), 0.4 + 0.4);
  EXPECT_EQ(accountant.remaining(), 0.0);
  EXPECT_FALSE(accountant.CanSpend(0.01));
}

TEST(PrivacyAccountantTest, ImportRequiresEmptyAccountantAndValidEntries) {
  PrivacyAccountant accountant(1.0);
  EXPECT_FALSE(accountant.ImportLedger({{-0.1, "negative"}}).ok());
  EXPECT_FALSE(accountant.ImportLedger({{0.0, "zero"}}).ok());
  // One NaN or infinite entry would leave spent() NaN or +inf for good,
  // so CanSpend would refuse every later spend, however large the budget.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    PrivacyAccountant fresh(std::numeric_limits<double>::infinity());
    EXPECT_FALSE(fresh.ImportLedger({{0.5, "publish"}, {bad, "replan"}}).ok())
        << bad;
  }
  EXPECT_TRUE(accountant.Spend(0.1, "a").ok());
  EXPECT_FALSE(accountant.ImportLedger({{0.1, "b"}}).ok());
}

}  // namespace
}  // namespace dphist
