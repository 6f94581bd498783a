// The sorted query sequence S (Section 3): the unit counts of L in rank
// (ascending) order — the unattributed histogram.
//
// Sensitivity is 1 (Proposition 3): adding a record turns some count x
// into x+1; placing the incremented value at the *last* position holding x
// keeps the sequence sorted, so exactly one position changes by one.

#ifndef DPHIST_PAPER_QUERY_SORTED_QUERY_H_
#define DPHIST_PAPER_QUERY_SORTED_QUERY_H_

#include "query/query_sequence.h"

namespace dphist {

/// Rank-ordered unit counts; answers satisfy S[i] <= S[i+1] by definition.
class SortedQuery : public QuerySequence {
 public:
  /// Builds S over a domain of `domain_size` positions.
  explicit SortedQuery(std::int64_t domain_size);

  std::int64_t size() const override { return domain_size_; }
  std::vector<double> Evaluate(const Histogram& data) const override;
  double Sensitivity() const override { return 1.0; }
  std::string Name() const override { return "S"; }

 private:
  std::int64_t domain_size_;
};

}  // namespace dphist

#endif  // DPHIST_PAPER_QUERY_SORTED_QUERY_H_
