// The benchmark's own arithmetic: percentiles (whole-sample and
// per-slice), span self-times, the unattributed residual and RMSE. Kept free of the dphist library so the
// self-test (arith_test.cc) pins exactly what the driver reports.

#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// the closest order statistics (position p/100 * (n - 1), the "type 7"
/// estimator). NaN for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(pos));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// A timing sample tagged with the slice of the measured window it fell in.
struct SlicedSample {
  std::uint32_t slice = 0;
  double value = 0.0;
};

/// The p-th percentile of each slice's samples, in slice order; slices
/// without samples are skipped.
inline std::vector<double> PercentilePerSlice(std::vector<SlicedSample> samples,
                                              double p) {
  std::sort(samples.begin(), samples.end(),
            [](const SlicedSample& a, const SlicedSample& b) {
              return a.slice < b.slice;
            });
  std::vector<double> out;
  std::vector<double> slice;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    slice.push_back(samples[i].value);
    if (i + 1 == samples.size() || samples[i + 1].slice != samples[i].slice) {
      out.push_back(Percentile(slice, p));
      slice.clear();
    }
  }
  return out;
}

/// One traced call: a layer's public function timed from the benchmark.
/// Spans of one replayed request share `request`; `parent` indexes the
/// enclosing span in the same vector (-1 for a root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and child
/// time outside the parent's interval is not subtracted).
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// What the traced layers leave unexplained of the untraced per-query
/// CPU cost: cpu_ns_per_query minus the sum of the layers' self times
/// per query. Negative when the layers measure more than the process
/// spent (the replay ran colder or slower than the live server).
inline double UnattributedResidual(double cpu_ns_per_query,
                                   const std::vector<double>& layer_ns) {
  double attributed = 0.0;
  for (double ns : layer_ns) attributed += ns;
  return cpu_ns_per_query - attributed;
}

/// Root-mean-square error accumulated over any number of releases:
/// sqrt(sum of squared errors / answers), so every answer of every
/// release weighs the same.
class RmseAccumulator {
 public:
  void Add(const double* estimates, const double* truth, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const double err = estimates[i] - truth[i];
      sum_sq_ += err * err;
    }
    count_ += count;
  }
  double value() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                       : std::sqrt(sum_sq_ / static_cast<double>(count_));
  }

 private:
  double sum_sq_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
