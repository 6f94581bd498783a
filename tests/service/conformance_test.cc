// Statistical conformance harness: QueryService answers must match the
// closed-form error model of the matrix mechanism (Li et al., PODS 2010;
// the lens the paper's Section 6 uses), query by query.
//
// For every published configuration with the linear protocol (rounding
// and pruning off), the expected squared error of each range answer is
// known EXACTLY (tests/support/variance_oracle.h) — so the serving layer
// is validated statistically, not spot-checked: over T independent
// releases the empirical per-query mean squared error must land within
// the Monte-Carlo confidence bound of the closed form. A wiring bug that
// shifted a shard boundary, reused noise across shards, served an answer
// from another epoch, or double-counted a node would move the empirical
// error off the curve and fail these assertions.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "service/query_service.h"
#include "tests/support/variance_oracle.h"

namespace dphist {
namespace {

using test_support::SquaredErrorRelativeBound;
using test_support::VarianceOracle;

struct ConformanceCase {
  std::string name;
  std::int64_t domain_size;
  SnapshotOptions options;
};

std::vector<ConformanceCase> Cases() {
  std::vector<ConformanceCase> cases;

  ConformanceCase ltilde;
  ltilde.name = "ltilde_sharded";
  ltilde.domain_size = 60;
  ltilde.options.strategy = StrategyKind::kLTilde;
  ltilde.options.epsilon = 0.7;
  ltilde.options.shards = 3;
  cases.push_back(ltilde);

  ConformanceCase htilde;
  htilde.name = "htilde_padded_k3";
  htilde.domain_size = 48;  // pads to 81 leaves per 27-wide shard tree
  htilde.options.strategy = StrategyKind::kHTilde;
  htilde.options.epsilon = 1.0;
  htilde.options.branching = 3;
  htilde.options.shards = 2;
  cases.push_back(htilde);

  ConformanceCase hbar;
  hbar.name = "hbar_unsharded";
  hbar.domain_size = 32;
  hbar.options.strategy = StrategyKind::kHBar;
  hbar.options.epsilon = 1.0;
  cases.push_back(hbar);

  ConformanceCase htilde_sharded;
  htilde_sharded.name = "htilde_sharded";
  htilde_sharded.domain_size = 32;  // binary trees, unpadded 8-wide shards
  htilde_sharded.options.strategy = StrategyKind::kHTilde;
  htilde_sharded.options.epsilon = 0.5;
  htilde_sharded.options.shards = 4;
  cases.push_back(htilde_sharded);

  ConformanceCase wavelet;
  wavelet.name = "wavelet_sharded";
  wavelet.domain_size = 32;
  wavelet.options.strategy = StrategyKind::kWavelet;
  wavelet.options.epsilon = 1.0;
  wavelet.options.shards = 2;
  cases.push_back(wavelet);

  for (ConformanceCase& c : cases) {
    // Closed forms require the linear protocol.
    c.options.round_to_nonnegative_integers = false;
    c.options.prune_nonpositive_subtrees = false;
  }
  return cases;
}

/// Probe queries: unit, shard-interior, shard-spanning, and full-domain.
std::vector<Interval> ProbeQueries(std::int64_t n) {
  std::vector<Interval> queries = {
      Interval(0, 0),     Interval(n / 2, n / 2), Interval(0, n - 1),
      Interval(1, n / 2), Interval(n / 3, n - 2), Interval(n / 4, 3 * n / 4),
  };
  return queries;
}

TEST(ServiceConformanceTest, EmpiricalErrorMatchesClosedFormPerQuery) {
  constexpr std::int64_t kTrials = 4000;
  // z = 4.6 puts the per-assertion false-failure probability around 2e-6
  // under the CLT; with ~30 (case, query) pairs the suite-level flake
  // rate stays below 1e-4, and the bound itself is conservative.
  const double tolerance = SquaredErrorRelativeBound(kTrials, 4.6);

  for (const ConformanceCase& test_case : Cases()) {
    SCOPED_TRACE(test_case.name);
    Rng data_rng(29);
    Histogram data = Histogram::FromCounts(
        ZipfCounts(test_case.domain_size, 1.2, 5 * test_case.domain_size,
                   &data_rng));
    VarianceOracle oracle(test_case.options, test_case.domain_size);
    std::vector<Interval> queries = ProbeQueries(test_case.domain_size);

    QueryService service;

    std::vector<double> truth(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      truth[q] = data.Count(queries[q]);
    }

    std::vector<double> answers(queries.size());
    std::vector<double> sum_squared_error(queries.size(), 0.0);
    for (std::int64_t trial = 0; trial < kTrials; ++trial) {
      // One fresh release per trial, answered as one batch.
      ASSERT_TRUE(service
                      .Publish(data, test_case.options,
                               /*seed=*/1000 + static_cast<std::uint64_t>(
                                                   trial))
                      .ok());
      EXPECT_TRUE(
          service.TryQueryBatch(queries.data(), queries.size(), answers.data())
              .ok());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double err = answers[q] - truth[q];
        sum_squared_error[q] += err * err;
      }
    }

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const double empirical =
          sum_squared_error[q] / static_cast<double>(kTrials);
      const double exact = oracle.RangeVariance(queries[q]);
      ASSERT_GT(exact, 0.0);
      EXPECT_NEAR(empirical / exact, 1.0, tolerance)
          << "query " << queries[q].ToString() << " empirical " << empirical
          << " exact " << exact;
    }
  }
}

TEST(ServiceConformanceTest, ShardedVarianceOracleMatchesUnshardedOnLTilde) {
  // Unit sanity for the oracle itself: L~'s variance is linear in range
  // length, so sharding must not change it — 2 |q| / eps^2 either way.
  SnapshotOptions unsharded;
  unsharded.strategy = StrategyKind::kLTilde;
  unsharded.epsilon = 0.9;
  unsharded.round_to_nonnegative_integers = false;
  unsharded.prune_nonpositive_subtrees = false;
  SnapshotOptions sharded = unsharded;
  sharded.shards = 5;

  VarianceOracle a(unsharded, 50);
  VarianceOracle b(sharded, 50);
  for (const Interval& q : ProbeQueries(50)) {
    EXPECT_NEAR(a.RangeVariance(q), b.RangeVariance(q), 1e-9)
        << q.ToString();
  }
}

TEST(ServiceConformanceTest, ShardingReducesHierarchicalVariance) {
  // A qualitative consequence of parallel composition the oracle should
  // reproduce: shard trees are shallower, so H~'s per-node noise scale
  // (height/eps) drops for queries inside one shard.
  SnapshotOptions unsharded;
  unsharded.strategy = StrategyKind::kHTilde;
  unsharded.epsilon = 1.0;
  unsharded.round_to_nonnegative_integers = false;
  unsharded.prune_nonpositive_subtrees = false;
  SnapshotOptions sharded = unsharded;
  sharded.shards = 4;

  VarianceOracle deep(unsharded, 64);
  VarianceOracle shallow(sharded, 64);
  // [0, 15] is exactly shard 0 of the sharded layout.
  EXPECT_LT(shallow.RangeVariance(Interval(0, 15)),
            deep.RangeVariance(Interval(0, 15)));
}

}  // namespace
}  // namespace dphist
