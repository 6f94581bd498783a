#include "paper/query/sorted_query.h"

#include "common/check.h"

namespace dphist {

SortedQuery::SortedQuery(std::int64_t domain_size)
    : domain_size_(domain_size) {
  DPHIST_CHECK(domain_size > 0);
}

std::vector<double> SortedQuery::Evaluate(const Histogram& data) const {
  DPHIST_CHECK_MSG(data.size() == domain_size_,
                   "data domain does not match query domain");
  return data.SortedCounts();
}

}  // namespace dphist
