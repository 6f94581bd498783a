#include "domain/domain.h"

#include "common/check.h"

namespace dphist {

Domain::Domain(std::int64_t size, std::string attribute)
    : size_(size), attribute_(std::move(attribute)) {
  DPHIST_CHECK_MSG(size > 0, "domain size must be positive");
}

}  // namespace dphist
