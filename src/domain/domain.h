// Ordered attribute domains.
//
// A histogram is built over one ordered "range attribute" (Section 1). The
// Domain records the attribute's name and size; every algorithm operates
// on positions 0..size-1.

#ifndef DPHIST_DOMAIN_DOMAIN_H_
#define DPHIST_DOMAIN_DOMAIN_H_

#include <cstdint>
#include <string>

#include "domain/interval.h"

namespace dphist {

/// An ordered domain of `size` positions with an attribute name.
class Domain {
 public:
  /// Constructs a domain of the given size (> 0) named `attribute`.
  explicit Domain(std::int64_t size, std::string attribute = "value");

  /// Number of positions.
  std::int64_t size() const { return size_; }

  /// Attribute name for reports.
  const std::string& attribute() const { return attribute_; }

  /// The full interval [0, size-1].
  Interval FullRange() const { return Interval(0, size_ - 1); }

  /// True iff [x, y] lies inside the domain.
  bool ContainsInterval(const Interval& range) const {
    return range.lo() >= 0 && range.hi() < size_;
  }

 private:
  std::int64_t size_;
  std::string attribute_;
};

}  // namespace dphist

#endif  // DPHIST_DOMAIN_DOMAIN_H_
