#include "estimators/wavelet.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/laplace.h"

namespace dphist {
namespace {

bool IsPowerOfTwo(std::int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::int64_t PadToPowerOfTwo(std::int64_t n) {
  std::int64_t p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

std::vector<double> HaarTransform(std::vector<double> values) {
  std::int64_t n = static_cast<std::int64_t>(values.size());
  DPHIST_CHECK_MSG(IsPowerOfTwo(n), "Haar transform needs a power of two");
  // averages[] starts as the leaves and is halved level by level; the
  // detail coefficients are recorded in BFS positions as we ascend.
  std::vector<double> coefficients(values.size(), 0.0);
  std::vector<double> averages = std::move(values);
  std::int64_t width = n;  // number of blocks at the current level * 2
  while (width > 1) {
    std::int64_t half = width / 2;
    // The dyadic nodes being formed sit at BFS indices half..width-1:
    // when `width` blocks shrink to `half` blocks, node ids are
    // half + b for block b (matching the implicit heap order 1=root).
    for (std::int64_t b = 0; b < half; ++b) {
      double left = averages[static_cast<std::size_t>(2 * b)];
      double right = averages[static_cast<std::size_t>(2 * b + 1)];
      coefficients[static_cast<std::size_t>(half + b)] = (left - right) / 2.0;
      averages[static_cast<std::size_t>(b)] = (left + right) / 2.0;
    }
    width = half;
  }
  coefficients[0] = averages[0];  // global average
  return coefficients;
}

std::vector<double> InverseHaarTransform(
    const std::vector<double>& coefficients) {
  std::int64_t n = static_cast<std::int64_t>(coefficients.size());
  DPHIST_CHECK_MSG(IsPowerOfTwo(n), "Haar transform needs a power of two");
  std::vector<double> values(coefficients.size(), 0.0);
  values[0] = coefficients[0];
  // Descend: at each level, block b splits into 2b (left, +detail) and
  // 2b+1 (right, -detail) using the detail at BFS index half + b.
  std::int64_t width = 1;
  while (width < n) {
    for (std::int64_t b = width - 1; b >= 0; --b) {
      double avg = values[static_cast<std::size_t>(b)];
      double detail = coefficients[static_cast<std::size_t>(width + b)];
      values[static_cast<std::size_t>(2 * b)] = avg + detail;
      values[static_cast<std::size_t>(2 * b + 1)] = avg - detail;
    }
    width *= 2;
  }
  return values;
}

double HaarWeightedSensitivity(std::int64_t padded_leaf_count) {
  DPHIST_CHECK(IsPowerOfTwo(padded_leaf_count));
  return 1.0 + std::log2(static_cast<double>(padded_leaf_count));
}

WaveletEstimator::WaveletEstimator(const Histogram& data,
                                   const WaveletOptions& options, Rng* rng)
    : round_answers_(options.round_to_nonnegative_integers),
      domain_size_(data.size()),
      padded_size_(PadToPowerOfTwo(data.size())) {
  DPHIST_CHECK(rng != nullptr);
  DPHIST_CHECK_MSG(options.epsilon > 0.0, "epsilon must be positive");

  std::vector<double> padded(static_cast<std::size_t>(padded_size_), 0.0);
  for (std::int64_t i = 0; i < domain_size_; ++i) {
    padded[static_cast<std::size_t>(i)] = data.At(i);
  }
  std::vector<double> coefficients = HaarTransform(std::move(padded));

  // Per-coefficient weighted Laplace noise (the Privelet mechanism), one
  // draw per coefficient in index order. A coefficient's weight is the
  // number of leaves it covers: the base coefficient and the top detail
  // coefficient, [0, 2), cover all padded_size_ leaves, and the detail
  // coefficients [2^d, 2^(d+1)) of depth d cover padded_size_ >> d.
  const double sensitivity = HaarWeightedSensitivity(padded_size_);
  std::int64_t begin = 0;
  std::int64_t end = std::min<std::int64_t>(2, padded_size_);
  std::int64_t block = padded_size_;
  while (begin < padded_size_) {
    LaplaceDistribution noise(
        sensitivity / (options.epsilon * static_cast<double>(block)));
    noise.AddSamplesTo(coefficients.data() + begin,
                       static_cast<std::size_t>(end - begin), rng);
    begin = end;
    end *= 2;
    block /= 2;
  }

  std::vector<double> reconstructed = InverseHaarTransform(coefficients);
  if (padded_size_ == domain_size_) {
    leaves_ = std::move(reconstructed);
  } else {
    // A copy, so the leaves never keep the padding's capacity.
    leaves_.assign(reconstructed.begin(),
                   reconstructed.begin() + domain_size_);
  }
  prefix_ = LeafPrefixSums(leaves_);
}

WaveletEstimator::WaveletEstimator(const WaveletOptions& options,
                                   std::vector<double> leaves)
    : round_answers_(options.round_to_nonnegative_integers),
      domain_size_(static_cast<std::int64_t>(leaves.size())),
      padded_size_(PadToPowerOfTwo(static_cast<std::int64_t>(leaves.size()))),
      leaves_(std::move(leaves)) {
  prefix_ = LeafPrefixSums(leaves_);
}

Result<std::unique_ptr<WaveletEstimator>> WaveletEstimator::Restore(
    const WaveletOptions& options, std::vector<double> leaves) {
  if (leaves.empty()) {
    return Status::InvalidArgument("wavelet restore needs a non-empty domain");
  }
  return std::unique_ptr<WaveletEstimator>(
      new WaveletEstimator(options, std::move(leaves)));
}

double WaveletEstimator::RangeCount(const Interval& range) const {
  DPHIST_CHECK_MSG(range.lo() >= 0 && range.hi() < domain_size_,
                   "range outside the estimator's domain");
  double answer = prefix_[static_cast<std::size_t>(range.hi()) + 1] -
                  prefix_[static_cast<std::size_t>(range.lo())];
  if (!round_answers_) return answer;
  return answer <= 0.0 ? 0.0 : std::round(answer);
}

}  // namespace dphist
