// Sequential-composition privacy accounting.
//
// The paper's protocol (Section 2.1): answering the i-th query sequence
// with an epsilon_i-DP mechanism makes the whole interaction
// (sum_i epsilon_i)-DP. PrivacyAccountant tracks that sum against a total
// budget so a data owner can refuse queries that would overspend.
//
// The running sum is Neumaier-compensated, for two reasons beyond
// accuracy:
//   - CanSpend is derived from the exact compensated fold, so the gate
//     needs no floating-point tolerance: many small spends that sum to
//     exactly the budget are admitted, anything beyond the correctly
//     rounded sum is refused;
//   - the state after any sequence of Spend calls is a pure fold over
//     the ledger entries in order. Replaying a persisted ledger
//     (storage/epoch_store.h WAL recovery) or rolling the last entry
//     back therefore reproduces spent() BIT-identically — the durable
//     accounting across restarts is exact, not approximately equal.

#ifndef DPHIST_MECHANISM_PRIVACY_ACCOUNTANT_H_
#define DPHIST_MECHANISM_PRIVACY_ACCOUNTANT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace dphist {

/// Tracks cumulative epsilon spent across query sequences.
class PrivacyAccountant {
 public:
  /// An accountant with the given total budget (> 0; infinity for
  /// unlimited).
  explicit PrivacyAccountant(double total_budget);

  /// The configured budget.
  double total_budget() const { return total_budget_; }

  /// Epsilon consumed so far: the compensated ledger fold.
  double spent() const { return sum_ + compensation_; }

  /// Budget still available, clamped to zero — user-facing messages
  /// must never report a negative remaining budget.
  double remaining() const {
    const double left = total_budget_ - spent();
    return left > 0.0 ? left : 0.0;
  }

  /// True iff a further `epsilon` expenditure fits in the budget,
  /// decided by simulating the exact fold Spend would perform — no
  /// drift tolerance, and CanSpend(e) true guarantees Spend(e) succeeds.
  bool CanSpend(double epsilon) const;

  /// Records an expenditure labelled `purpose`. Fails with
  /// FailedPrecondition (and records nothing) if it exceeds the budget;
  /// fails with InvalidArgument for non-positive epsilon.
  Status Spend(double epsilon, const std::string& purpose);

  /// Removes the most recent ledger entry and restores spent() to the
  /// bit-exact fold of the remaining entries — the in-memory mirror of
  /// truncating the entry's WAL record. Fails on an empty ledger.
  Status RollbackLast();

  /// One ledger entry per successful Spend call.
  struct Entry {
    double epsilon;
    std::string purpose;
  };

  /// Replaces this (required empty) accountant's history with a
  /// persisted ledger, folding the entries in order so spent() equals
  /// what the original accountant computed, bit for bit. Entries are
  /// NOT re-gated against the budget: they describe releases that
  /// already happened — importing a ledger that exceeds the current
  /// budget simply leaves CanSpend refusing everything. An epsilon that
  /// is not positive and finite is rejected (a ledger that gated its
  /// spends can never contain one, and one NaN or infinity would leave
  /// spent() unusable for good).
  Status ImportLedger(std::vector<Entry> entries);

  /// The expenditure ledger in order.
  const std::vector<Entry>& ledger() const { return ledger_; }

 private:
  /// One Neumaier step: folds `epsilon` into (sum, compensation).
  static void Fold(double epsilon, double* sum, double* compensation);

  double total_budget_;
  /// Neumaier compensated-summation state; spent() = sum_ +
  /// compensation_ and both are pure functions of the ledger sequence.
  double sum_ = 0.0;
  double compensation_ = 0.0;
  std::vector<Entry> ledger_;
};

}  // namespace dphist

#endif  // DPHIST_MECHANISM_PRIVACY_ACCOUNTANT_H_
