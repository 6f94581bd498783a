// A universal histogram over network-trace data — the Section 4 task.
//
// The data owner publishes one epsilon-DP hierarchical histogram of
// per-host connection counts; afterwards ANY range query over the
// address space can be answered from the published (inferred) counts,
// with no further privacy cost. We compare the three strategies of the
// paper on ranges of growing size, and demonstrate the consistency
// property that motivates constrained inference.

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "paper/data/nettrace.h"
#include "estimators/universal.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"

int main() {
  using namespace dphist;

  NetTraceConfig config;
  config.num_hosts = 65536;
  config.num_connections = 300000;
  Histogram trace = GenerateNetTrace(config);
  std::printf("trace: %lld hosts, %.0f connections, %lld active hosts\n",
              static_cast<long long>(trace.size()), trace.Total(),
              static_cast<long long>(
                  trace.size() - std::count(trace.counts().begin(),
                                            trace.counts().end(), 0.0)));

  UniversalOptions options;
  options.epsilon = 0.1;
  Rng rng(11);

  // Each estimator construction is one interaction with the private data.
  LTildeEstimator l_tilde(trace, options, &rng);
  HTildeEstimator h_tilde(trace, options, &rng);
  HBarEstimator h_bar(trace, options, &rng);

  std::printf("\nepsilon = %.2f, tree height = %lld\n", options.epsilon,
              static_cast<long long>(h_bar.tree().height()));
  std::printf("\n%22s  %10s  %10s  %10s  %10s\n", "range", "true", "L~",
              "H~", "H-bar");
  for (std::int64_t size : {1, 16, 256, 4096, 65536}) {
    Interval q(0, size - 1);
    std::printf("%22s  %10.0f  %10.0f  %10.0f  %10.0f\n",
                q.ToString().c_str(), trace.Count(q), l_tilde.RangeCount(q),
                h_tilde.RangeCount(q), h_bar.RangeCount(q));
  }

  // The consistency dividend. Build H~ and H-bar from the SAME noisy
  // draw (no pruning/rounding, to show the pure inference property):
  // H-bar's answers are exactly additive — the two halves of any
  // interval sum to the interval — while H~'s raw counts disagree.
  UniversalOptions raw = options;
  raw.round_to_nonnegative_integers = false;
  raw.prune_nonpositive_subtrees = false;
  HierarchicalQuery query(trace.size(), raw.branching);
  LaplaceMechanism mechanism(raw.epsilon);
  std::vector<double> noisy = mechanism.AnswerQuery(query, trace, &rng);
  HTildeEstimator ht_shared(trace.size(), raw, noisy);
  HBarEstimator hb_shared(trace.size(), raw, noisy);

  Interval whole(1024, 2047), left(1024, 1535), right(1536, 2047);
  std::printf("\nconsistency: does count(%s) equal count(%s) + count(%s)?\n",
              whole.ToString().c_str(), left.ToString().c_str(),
              right.ToString().c_str());
  double ht_gap = ht_shared.RangeCount(whole) -
                  (ht_shared.RangeCount(left) + ht_shared.RangeCount(right));
  double hb_gap = hb_shared.RangeCount(whole) -
                  (hb_shared.RangeCount(left) + hb_shared.RangeCount(right));
  std::printf("  H~:    whole %.1f vs halves %.1f  (gap %.2f)\n",
              ht_shared.RangeCount(whole),
              ht_shared.RangeCount(left) + ht_shared.RangeCount(right),
              ht_gap);
  std::printf("  H-bar: whole %.1f vs halves %.1f  (gap %.2g — consistent "
              "by construction)\n",
              hb_shared.RangeCount(whole),
              hb_shared.RangeCount(left) + hb_shared.RangeCount(right),
              hb_gap);
  return 0;
}
