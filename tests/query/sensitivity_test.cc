// Empirical sensitivity checks (Definition 2.2): for randomly drawn
// databases and random single-record additions (the neighbor relation),
// the L1 change of each query's answer must never exceed the declared
// sensitivity — and an adversarially chosen neighbor must achieve it.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "domain/histogram.h"
#include "query/hierarchical_query.h"
#include "paper/query/sorted_query.h"
#include "query/unit_query.h"

namespace dphist {
namespace {

Histogram RandomDatabase(std::int64_t n, Rng* rng) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n));
  for (auto& c : counts) {
    // Mix of empty, small, and duplicate-heavy counts.
    c = rng->NextBernoulli(0.4) ? 0 : rng->NextInt(0, 6);
  }
  return Histogram::FromCounts(counts);
}

double NeighborL1Delta(const QuerySequence& query, const Histogram& base,
                       std::int64_t position) {
  Histogram neighbor = base;
  neighbor.Increment(position);  // Add one record at `position`.
  return L1Distance(query.Evaluate(base), query.Evaluate(neighbor));
}

class SensitivitySweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SensitivitySweep, UnitQueryNeverExceedsOne) {
  std::int64_t n = GetParam();
  UnitQuery query(n);
  Rng rng(static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 30; ++trial) {
    Histogram base = RandomDatabase(n, &rng);
    std::int64_t pos = rng.NextInt(0, n - 1);
    double delta = NeighborL1Delta(query, base, pos);
    EXPECT_LE(delta, query.Sensitivity() + 1e-9);
    EXPECT_DOUBLE_EQ(delta, 1.0);  // L always changes by exactly 1.
  }
}

TEST_P(SensitivitySweep, SortedQueryNeverExceedsOne) {
  // Proposition 3: despite the global sort, adding one record moves the
  // sorted vector by exactly 1 in L1.
  std::int64_t n = GetParam();
  SortedQuery query(n);
  Rng rng(static_cast<std::uint64_t>(n) + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    Histogram base = RandomDatabase(n, &rng);
    std::int64_t pos = rng.NextInt(0, n - 1);
    double delta = NeighborL1Delta(query, base, pos);
    EXPECT_LE(delta, query.Sensitivity() + 1e-9);
    EXPECT_DOUBLE_EQ(delta, 1.0);
  }
}

TEST_P(SensitivitySweep, HierarchicalQueryNeverExceedsHeight) {
  std::int64_t n = GetParam();
  HierarchicalQuery query(n, 2);
  Rng rng(static_cast<std::uint64_t>(n) + 2000);
  for (int trial = 0; trial < 30; ++trial) {
    Histogram base = RandomDatabase(n, &rng);
    std::int64_t pos = rng.NextInt(0, n - 1);
    double delta = NeighborL1Delta(query, base, pos);
    EXPECT_LE(delta, query.Sensitivity() + 1e-9);
    // Proposition 4: the bound is achieved by *every* neighbor — the
    // record's leaf and each ancestor change by exactly one.
    EXPECT_DOUBLE_EQ(delta, query.Sensitivity());
  }
}

INSTANTIATE_TEST_SUITE_P(DomainSizes, SensitivitySweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 33, 100));

TEST(SensitivityTest, SortedQueryRemovalAlsoBounded) {
  SortedQuery query(8);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram base = RandomDatabase(8, &rng);
    // Remove one record from a nonzero position if any exists.
    std::int64_t pos = -1;
    for (std::int64_t i = 0; i < 8; ++i) {
      if (base.At(i) > 0) pos = i;
    }
    if (pos < 0) continue;
    Histogram neighbor = base;
    neighbor.Increment(pos, -1.0);
    double delta =
        L1Distance(query.Evaluate(base), query.Evaluate(neighbor));
    EXPECT_DOUBLE_EQ(delta, 1.0);
  }
}

TEST(SensitivityTest, HierarchicalSensitivityGrowsLogarithmically) {
  EXPECT_DOUBLE_EQ(HierarchicalQuery(4, 2).Sensitivity(), 3.0);
  EXPECT_DOUBLE_EQ(HierarchicalQuery(8, 2).Sensitivity(), 4.0);
  EXPECT_DOUBLE_EQ(HierarchicalQuery(1024, 2).Sensitivity(), 11.0);
  EXPECT_DOUBLE_EQ(HierarchicalQuery(65536, 2).Sensitivity(), 17.0);
  // Larger branching flattens the tree.
  EXPECT_DOUBLE_EQ(HierarchicalQuery(65536, 16).Sensitivity(), 5.0);
}

TEST(SensitivityTest, RepeatedQueryScalesSensitivity) {
  // The paper's remark after Proposition 1: repeating a query k times
  // multiplies sensitivity by k. Emulate with a tree of height 1 repeated
  // via a composite: here we simply verify L1 additivity of the neighbor
  // delta across concatenated answer vectors.
  UnitQuery query(4);
  Histogram base = Histogram::FromCounts({1, 2, 3, 4});
  Histogram neighbor = base;
  neighbor.Increment(2);
  std::vector<double> b1 = query.Evaluate(base);
  std::vector<double> n1 = query.Evaluate(neighbor);
  // Concatenate three copies.
  std::vector<double> b3, n3;
  for (int r = 0; r < 3; ++r) {
    b3.insert(b3.end(), b1.begin(), b1.end());
    n3.insert(n3.end(), n1.begin(), n1.end());
  }
  EXPECT_DOUBLE_EQ(L1Distance(b3, n3), 3.0 * L1Distance(b1, n1));
}

}  // namespace
}  // namespace dphist
