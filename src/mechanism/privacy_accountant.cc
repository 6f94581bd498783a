#include "mechanism/privacy_accountant.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace dphist {

PrivacyAccountant::PrivacyAccountant(double total_budget)
    : total_budget_(total_budget) {
  DPHIST_CHECK_MSG(total_budget > 0.0, "privacy budget must be positive");
}

void PrivacyAccountant::Fold(double epsilon, double* sum,
                             double* compensation) {
  // Neumaier's variant of Kahan summation: the branch captures the
  // rounding error regardless of which operand is larger, so the state
  // (sum, compensation) after N folds is a deterministic function of
  // the epsilon sequence — what makes WAL replay bit-exact.
  const double t = *sum + epsilon;
  if (std::abs(*sum) >= std::abs(epsilon)) {
    *compensation += (*sum - t) + epsilon;
  } else {
    *compensation += (epsilon - t) + *sum;
  }
  *sum = t;
}

bool PrivacyAccountant::CanSpend(double epsilon) const {
  if (epsilon <= 0.0) return false;
  // Simulate the exact fold Spend would perform; no tolerance needed —
  // the compensated total of spends that exactly exhaust the budget
  // compares equal to it, while any real overspend compares greater.
  double sum = sum_;
  double compensation = compensation_;
  Fold(epsilon, &sum, &compensation);
  return sum + compensation <= total_budget_;
}

Status PrivacyAccountant::Spend(double epsilon, const std::string& purpose) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (!CanSpend(epsilon)) {
    return Status::FailedPrecondition(
        "privacy budget exhausted: requested " + std::to_string(epsilon) +
        ", remaining " + std::to_string(remaining()));
  }
  Fold(epsilon, &sum_, &compensation_);
  ledger_.push_back(Entry{epsilon, purpose});
  return Status::Ok();
}

Status PrivacyAccountant::RollbackLast() {
  if (ledger_.empty()) {
    return Status::FailedPrecondition("nothing to roll back");
  }
  ledger_.pop_back();
  // Refold the surviving prefix from scratch rather than subtracting:
  // subtraction does not invert a compensated fold, but the refold is
  // exactly the computation a WAL replay of the truncated log performs,
  // so the two states agree bit for bit.
  sum_ = 0.0;
  compensation_ = 0.0;
  for (const Entry& entry : ledger_) {
    Fold(entry.epsilon, &sum_, &compensation_);
  }
  return Status::Ok();
}

Status PrivacyAccountant::ImportLedger(std::vector<Entry> entries) {
  if (!ledger_.empty()) {
    return Status::FailedPrecondition(
        "ImportLedger needs a fresh accountant");
  }
  for (const Entry& entry : entries) {
    if (!std::isfinite(entry.epsilon) || entry.epsilon <= 0.0) {
      return Status::InvalidArgument(
          "ledger entry with an epsilon that is not positive and finite");
    }
  }
  ledger_ = std::move(entries);
  for (const Entry& entry : ledger_) {
    Fold(entry.epsilon, &sum_, &compensation_);
  }
  return Status::Ok();
}

}  // namespace dphist
