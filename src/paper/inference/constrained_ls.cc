#include "paper/inference/constrained_ls.h"

#include <cmath>
#include <set>

#include "common/check.h"
#include "paper/linalg/least_squares.h"

namespace dphist {

ConstraintSystem::ConstraintSystem(std::int64_t variable_count)
    : variable_count_(variable_count) {
  DPHIST_CHECK(variable_count > 0);
}

void ConstraintSystem::AddConstraint(
    const std::vector<std::pair<std::int64_t, double>>& terms, double rhs) {
  DPHIST_CHECK_MSG(!terms.empty(), "constraint needs at least one term");
  std::set<std::int64_t> seen;
  for (const auto& [index, coefficient] : terms) {
    DPHIST_CHECK(index >= 0 && index < variable_count_);
    DPHIST_CHECK_MSG(seen.insert(index).second,
                     "duplicate index in one constraint");
    (void)coefficient;
  }
  rows_.push_back(terms);
  rhs_.push_back(rhs);
}

void ConstraintSystem::AddSumConstraint(
    std::int64_t target, const std::vector<std::int64_t>& parts) {
  std::vector<std::pair<std::int64_t, double>> terms;
  terms.reserve(parts.size() + 1);
  terms.emplace_back(target, 1.0);
  for (std::int64_t part : parts) terms.emplace_back(part, -1.0);
  AddConstraint(terms, 0.0);
}

bool ConstraintSystem::IsSatisfied(const std::vector<double>& answers,
                                   double tolerance) const {
  return MaxViolation(answers) <= tolerance;
}

double ConstraintSystem::MaxViolation(
    const std::vector<double>& answers) const {
  DPHIST_CHECK(answers.size() == static_cast<std::size_t>(variable_count_));
  double worst = 0.0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    double lhs = 0.0;
    for (const auto& [index, coefficient] : rows_[r]) {
      lhs += coefficient * answers[static_cast<std::size_t>(index)];
    }
    worst = std::max(worst, std::abs(lhs - rhs_[r]));
  }
  return worst;
}

std::pair<linalg::Matrix, linalg::Vector> ConstraintSystem::ToMatrix() const {
  DPHIST_CHECK_MSG(!rows_.empty(), "no constraints added");
  linalg::Matrix a(rows_.size(), static_cast<std::size_t>(variable_count_));
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (const auto& [index, coefficient] : rows_[r]) {
      a(r, static_cast<std::size_t>(index)) = coefficient;
    }
  }
  return {a, rhs_};
}

Result<std::vector<double>> ConstrainedLeastSquares(
    const ConstraintSystem& constraints, const std::vector<double>& noisy) {
  if (noisy.size() != static_cast<std::size_t>(constraints.variable_count())) {
    return Status::InvalidArgument(
        "noisy answer length does not match the constraint system");
  }
  if (constraints.constraint_count() == 0) {
    return noisy;  // Nothing to enforce; the projection is the identity.
  }
  auto [a, b] = constraints.ToMatrix();
  return linalg::ProjectOntoAffineSubspace(a, b, noisy);
}

}  // namespace dphist
