// End-to-end pipelines over synthetic datasets: data owner answers under
// epsilon-DP, analyst post-processes, range queries are served — the full
// Figure 1 workflow, including privacy budgeting across both histogram
// tasks.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "paper/common/statistics.h"
#include "paper/data/nettrace.h"
#include "paper/data/search_logs.h"
#include "paper/estimators/unattributed.h"
#include "estimators/universal.h"
#include "mechanism/laplace_mechanism.h"
#include "mechanism/privacy_accountant.h"
#include "query/hierarchical_query.h"

namespace dphist {
namespace {

TEST(EndToEndTest, DegreeSequenceWorkflow) {
  // Data owner: NetTrace-like degrees; analyst asks S at eps = 0.1.
  NetTraceConfig data_config;
  data_config.num_hosts = 2048;
  data_config.num_connections = 10000;
  Histogram data = GenerateNetTrace(data_config);

  PrivacyAccountant accountant(1.0);
  ASSERT_TRUE(accountant.Spend(0.1, "degree sequence").ok());

  Rng rng(1);
  std::vector<double> noisy = SampleNoisySortedCounts(data, 0.1, &rng);
  std::vector<double> inferred =
      ApplyUnattributedEstimator(UnattributedEstimator::kSBar, noisy);
  std::vector<double> truth = TrueSortedCounts(data);

  // Inference must improve markedly on this duplicate-heavy data.
  EXPECT_LT(SquaredError(inferred, truth) * 5.0,
            SquaredError(noisy, truth));
  EXPECT_DOUBLE_EQ(accountant.remaining(), 0.9);
}

TEST(EndToEndTest, UniversalHistogramWorkflow) {
  TemporalSeriesConfig data_config;
  data_config.num_slots = 2048;
  Histogram data = GenerateTemporalSeries(data_config);

  UniversalOptions options;
  options.epsilon = 0.5;
  Rng rng(2);
  HBarEstimator h_bar(data, options, &rng);

  // Large-range answers track the truth. Tolerance accounts for the
  // positive bias the Section 5.2 rounding step introduces in the
  // near-zero half of the series (negative leaf noise clips to zero).
  Interval whole(0, data.size() - 1);
  EXPECT_NEAR(h_bar.RangeCount(whole), data.Count(whole),
              0.10 * data.Count(whole) + 50.0);

  // Without rounding, the consistent estimate is unbiased and the root
  // estimate is sharp: a much tighter check holds.
  UniversalOptions raw = options;
  raw.round_to_nonnegative_integers = false;
  raw.prune_nonpositive_subtrees = false;
  HBarEstimator h_bar_raw(data, raw, &rng);
  EXPECT_NEAR(h_bar_raw.RangeCount(whole), data.Count(whole),
              0.01 * data.Count(whole) + 200.0);
}

TEST(EndToEndTest, CrossoverBetweenLTildeAndHTilde) {
  // Fig. 6's qualitative shape: L~ wins small ranges, H~ wins large ones.
  // The crossover sits near range ~ ell^2 * E[#subtrees] (~2000 in the
  // paper's height-17 tree), so the domain must be big enough for ranges
  // beyond it — 16384 leaves (ell = 15) with 8192-length ranges works.
  NetTraceConfig data_config;
  data_config.num_hosts = 16384;
  data_config.num_connections = 60000;
  Histogram data = GenerateNetTrace(data_config);

  UniversalOptions options;
  options.epsilon = 1.0;
  options.round_to_nonnegative_integers = false;  // pure mechanism errors
  options.prune_nonpositive_subtrees = false;

  Rng rng(3);
  RunningStat small_l, small_h, large_l, large_h;
  for (int t = 0; t < 30; ++t) {
    LTildeEstimator l_tilde(data, options, &rng);
    HTildeEstimator h_tilde(data, options, &rng);
    for (int i = 0; i < 20; ++i) {
      std::int64_t lo_small = rng.NextInt(0, data.size() - 3);
      Interval small(lo_small, lo_small + 1);
      std::int64_t lo_large = rng.NextInt(0, data.size() - 8192 - 1);
      Interval large(lo_large, lo_large + 8191);
      double dsl = l_tilde.RangeCount(small) - data.Count(small);
      double dsh = h_tilde.RangeCount(small) - data.Count(small);
      double dll = l_tilde.RangeCount(large) - data.Count(large);
      double dlh = h_tilde.RangeCount(large) - data.Count(large);
      small_l.Add(dsl * dsl);
      small_h.Add(dsh * dsh);
      large_l.Add(dll * dll);
      large_h.Add(dlh * dlh);
    }
  }
  EXPECT_LT(small_l.Mean(), small_h.Mean());  // L~ wins unit-ish ranges
  EXPECT_GT(large_l.Mean(), large_h.Mean());  // H~ wins half-domain ranges
}

TEST(EndToEndTest, PruningMakesHBarCompetitiveAtSmallRangesOnSparseData) {
  // Section 5.2: on sparse domains, H-bar "can effectively identify
  // [sparse regions] because it has noisy observations at higher levels
  // of the tree", which is why it can approach (and on the paper's
  // datasets sometimes beat) L~ even at leaf granularity despite carrying
  // log(n)-times more noise per count. The dataset-independent parts of
  // that claim, verified here:
  //   (a) pruning strictly improves H-bar at unit ranges on sparse data;
  //   (b) with pruning, H-bar's unit-range error is within a small factor
  //       of L~'s — closing most of the ell^2 noise-variance gap
  //       (2 ell^2/eps^2 vs 2/eps^2 = 169x raw for this tree).
  // The large-range comparison (where H beats L) is covered without
  // rounding by CrossoverBetweenLTildeAndHTilde; with Section 5.2
  // rounding enabled, large-range error for *both* estimators is
  // dominated by the accumulation of clipped-noise bias across quiet
  // positions, which is a property of the rounding step, not of the
  // inference contribution under test here.
  NetTraceConfig data_config;
  data_config.num_hosts = 4096;   // tree height ell = 13
  data_config.num_connections = 3000;
  data_config.silent_fraction = 0.95;
  data_config.cluster_size = 32;
  Histogram data = GenerateNetTrace(data_config);

  UniversalOptions pruned;
  pruned.epsilon = 1.0;
  UniversalOptions unpruned = pruned;
  unpruned.prune_nonpositive_subtrees = false;

  HierarchicalQuery query(data.size(), pruned.branching);
  LaplaceMechanism mechanism(pruned.epsilon);
  Rng rng(4);
  RunningStat err_l, err_hb, err_hb_unpruned;
  for (int t = 0; t < 40; ++t) {
    LTildeEstimator l_tilde(data, pruned, &rng);
    std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
    HBarEstimator h_bar(data.size(), pruned, noisy);
    HBarEstimator h_bar_raw(data.size(), unpruned, noisy);
    for (int i = 0; i < 100; ++i) {
      std::int64_t pos = rng.NextInt(0, data.size() - 1);
      Interval unit(pos, pos);
      double truth = data.Count(unit);
      double dl = l_tilde.RangeCount(unit) - truth;
      double dh = h_bar.RangeCount(unit) - truth;
      double dr = h_bar_raw.RangeCount(unit) - truth;
      err_l.Add(dl * dl);
      err_hb.Add(dh * dh);
      err_hb_unpruned.Add(dr * dr);
    }
  }
  // (a) pruning strictly helps at unit ranges on sparse data.
  EXPECT_LT(err_hb.Mean(), err_hb_unpruned.Mean() / 2.0);
  // (b) within a small factor of L~ despite 169x more raw noise variance.
  EXPECT_LT(err_hb.Mean(), 20.0 * err_l.Mean());
}

TEST(EndToEndTest, BudgetRefusalStopsSecondTask) {
  PrivacyAccountant accountant(0.15);
  EXPECT_TRUE(accountant.Spend(0.1, "universal histogram").ok());
  Status s = accountant.Spend(0.1, "degree sequence");
  EXPECT_FALSE(s.ok());
  // 0.1 + 0.05 lands a hair above 0.15 in double arithmetic, and the
  // accountant gates exactly — no drift tolerance to sneak through.
  EXPECT_FALSE(accountant.Spend(0.05, "degree sequence (reduced)").ok());
  // But asking for exactly what is left always succeeds and zeroes the
  // budget: remaining() is derived from the same compensated fold the
  // gate replays.
  EXPECT_TRUE(
      accountant.Spend(accountant.remaining(), "degree sequence (rest)").ok());
  EXPECT_EQ(accountant.remaining(), 0.0);
}

TEST(EndToEndTest, InferenceIsDeterministicPostProcessing) {
  // Proposition 2's mechanism: inference consumes only the noisy output,
  // so the same noisy draw must always produce the same estimate.
  TemporalSeriesConfig data_config;
  data_config.num_slots = 512;
  Histogram data = GenerateTemporalSeries(data_config);
  UniversalOptions options;
  options.epsilon = 1.0;
  Rng rng(5);
  HierarchicalQuery query(data.size(), options.branching);
  LaplaceMechanism mechanism(options.epsilon);
  std::vector<double> noisy = mechanism.AnswerQuery(query, data, &rng);
  HBarEstimator a(data.size(), options, noisy);
  HBarEstimator b(data.size(), options, noisy);
  EXPECT_EQ(a.leaf_estimates(), b.leaf_estimates());
}

}  // namespace
}  // namespace dphist
