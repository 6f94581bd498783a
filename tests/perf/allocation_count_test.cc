// Proves the hot query paths allocate nothing: this binary replaces the
// global operator new/delete with counting versions and asserts that
// answering ranges — scalar or batched, on all three universal
// estimators and on the raw tree visitor — performs zero heap
// allocations per query. It also counts requested bytes, to bound what
// one H-bar build and one default Snapshot::Build ask for. Kept out of dphist_tests so the
// instrumentation cannot interfere with unrelated suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "estimators/range_engine.h"
#include "estimators/universal.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "service/query_service.h"
#include "service/snapshot.h"
#include "tree/range_decomposition.h"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
std::atomic<std::size_t> g_allocated_bytes{0};
/// Requests of at least kLargeRequest bytes: node-sized buffers.
std::atomic<std::size_t> g_large_allocation_count{0};
constexpr std::size_t kLargeRequest = 512 * 1024;

void* CountedMalloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= kLargeRequest) {
    g_large_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedMalloc(size); }

void* operator new[](std::size_t size) { return CountedMalloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dphist {
namespace {

/// Runs `fn` once as warm-up, then again while counting heap allocations.
template <typename Fn>
std::size_t AllocationsDuring(Fn&& fn) {
  fn();  // warm-up: first-use lazy initialization doesn't count
  const std::size_t before = g_allocation_count.load();
  fn();
  return g_allocation_count.load() - before;
}

/// What one call of `fn` requested from the heap.
struct Requests {
  std::size_t bytes = 0;
  std::size_t large_buffers = 0;
};

/// Runs `fn` once as warm-up, then again while counting requested bytes
/// and large buffers.
template <typename Fn>
Requests RequestsDuring(Fn&& fn) {
  fn();
  const std::size_t bytes = g_allocated_bytes.load();
  const std::size_t large = g_large_allocation_count.load();
  fn();
  return {g_allocated_bytes.load() - bytes,
          g_large_allocation_count.load() - large};
}

std::vector<Interval> FixedWorkload(std::int64_t domain_size) {
  Rng rng(5);
  return RandomRangesOfSize(domain_size, domain_size / 3, 256, &rng);
}

TEST(AllocationCountTest, ForEachRangeNodeAllocatesNothing) {
  TreeLayout tree(1 << 16, 2);
  std::vector<Interval> workload = FixedWorkload(tree.leaf_count());
  double sink = 0.0;
  std::size_t allocs = AllocationsDuring([&] {
    for (const Interval& q : workload) {
      ForEachRangeNode(tree, q, [&](std::int64_t v) {
        sink += static_cast<double>(v);
      });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(AllocationCountTest, ScratchBufferDecompositionAllocatesNothing) {
  TreeLayout tree(1 << 14, 4);
  std::vector<Interval> workload = FixedWorkload(tree.leaf_count());
  std::vector<std::int64_t> scratch;
  scratch.reserve(static_cast<std::size_t>(MaxDecompositionSize(tree)));
  std::size_t sink = 0;
  std::size_t allocs = AllocationsDuring([&] {
    for (const Interval& q : workload) {
      DecomposeRangeInto(tree, q, &scratch);
      sink += scratch.size();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(sink, 0u);
}

class EstimatorAllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng data_rng(3);
    data_ = std::make_unique<Histogram>(
        Histogram::FromCounts(ZipfCounts(kDomain, 1.2, 4 * kDomain,
                                         &data_rng)));
    UniversalOptions options;
    options.epsilon = 0.5;
    Rng rng(29);
    l_tilde_ = std::make_unique<LTildeEstimator>(*data_, options, &rng);
    HierarchicalQuery query(kDomain, options.branching);
    LaplaceMechanism mechanism(options.epsilon);
    std::vector<double> noisy = mechanism.AnswerQuery(query, *data_, &rng);
    h_tilde_ = std::make_unique<HTildeEstimator>(kDomain, options, noisy);
    h_bar_rounded_ = std::make_unique<HBarEstimator>(kDomain, options, noisy);
    options.round_to_nonnegative_integers = false;
    options.prune_nonpositive_subtrees = false;
    h_bar_consistent_ =
        std::make_unique<HBarEstimator>(kDomain, options, noisy);
    workload_ = FixedWorkload(kDomain);
    answers_.resize(workload_.size());
  }

  std::size_t ScalarAllocations(const RangeCountEstimator& est) {
    return AllocationsDuring([&] {
      double sink = 0.0;
      for (const Interval& q : workload_) sink += est.RangeCount(q);
      sink_ = sink;
    });
  }

  std::size_t BatchedAllocations(const RangeCountEstimator& est) {
    return AllocationsDuring([&] {
      est.RangeCountsInto(workload_.data(), workload_.size(),
                          answers_.data());
    });
  }

  static constexpr std::int64_t kDomain = 1 << 12;
  std::unique_ptr<Histogram> data_;
  std::unique_ptr<LTildeEstimator> l_tilde_;
  std::unique_ptr<HTildeEstimator> h_tilde_;
  std::unique_ptr<HBarEstimator> h_bar_rounded_;
  std::unique_ptr<HBarEstimator> h_bar_consistent_;
  std::vector<Interval> workload_;
  std::vector<double> answers_;
  double sink_ = 0.0;
};

TEST_F(EstimatorAllocationTest, LTildeQueriesAreAllocationFree) {
  EXPECT_EQ(ScalarAllocations(*l_tilde_), 0u);
  EXPECT_EQ(BatchedAllocations(*l_tilde_), 0u);
}

TEST_F(EstimatorAllocationTest, HTildeQueriesAreAllocationFree) {
  EXPECT_EQ(ScalarAllocations(*h_tilde_), 0u);
  EXPECT_EQ(BatchedAllocations(*h_tilde_), 0u);
}

TEST_F(EstimatorAllocationTest, HBarPrefixPathIsAllocationFree) {
  ASSERT_TRUE(h_bar_consistent_->uses_prefix_fast_path());
  EXPECT_EQ(ScalarAllocations(*h_bar_consistent_), 0u);
  EXPECT_EQ(BatchedAllocations(*h_bar_consistent_), 0u);
}

TEST_F(EstimatorAllocationTest, HBarDecompositionFallbackIsAllocationFree) {
  ASSERT_FALSE(h_bar_rounded_->uses_prefix_fast_path());
  EXPECT_EQ(ScalarAllocations(*h_bar_rounded_), 0u);
  EXPECT_EQ(BatchedAllocations(*h_bar_rounded_), 0u);
}

TEST(ServiceAllocationTest, UncachedQueryBatchIsAllocationFree) {
  // The serving hot path inherits the estimators' zero-allocation
  // guarantee: TryQueryBatch loads the snapshot shared_ptr (refcount
  // bump, no heap), validates, and forwards the whole batch.
  Rng data_rng(3);
  Histogram data = Histogram::FromCounts(
      ZipfCounts(1 << 12, 1.2, 4 << 12, &data_rng));
  QueryService service;
  SnapshotOptions options;
  options.strategy = StrategyKind::kHTilde;
  ASSERT_TRUE(service.Publish(data, options, 9).ok());

  std::vector<Interval> workload = FixedWorkload(1 << 12);
  std::vector<double> answers(workload.size());
  std::size_t answered = 0;
  std::size_t allocs = AllocationsDuring([&] {
    answered += service
                    .TryQueryBatch(workload.data(), workload.size(),
                                   answers.data())
                    .ok();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(answered, 2u);
}

TEST(ServiceAllocationTest, DefaultServeConfigIsAllocationFreeOnFreshRanges) {
  // serve's default release, round+prune H-bar, is walker-served. Once
  // warm, a batch of ranges the service has never answered allocates
  // nothing, even with serve's old 65536-entry cache setting, which is
  // now accepted and ignored.
  Rng data_rng(3);
  Histogram data = Histogram::FromCounts(
      ZipfCounts(1 << 12, 1.2, 4 << 12, &data_rng));
  QueryServiceOptions service_options;
  service_options.cache_capacity = 65536;
  QueryService service(service_options);
  ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 9).ok());
  ASSERT_EQ(service.snapshot()->answer_plan(), nullptr);

  // Each pass sends 256 ranges no earlier pass sent.
  std::vector<Interval> fresh[2];
  for (std::int64_t pass = 0; pass < 2; ++pass) {
    for (std::int64_t i = 0; i < 256; ++i) {
      const std::int64_t lo = pass * 256 + i;
      fresh[pass].emplace_back(lo, lo + 1500);
    }
  }
  std::vector<double> answers(256);
  std::size_t pass = 0;
  std::size_t answered = 0;
  std::size_t allocs = AllocationsDuring([&] {
    const std::vector<Interval>& ranges = fresh[pass++];
    answered +=
        service.TryQueryBatch(ranges.data(), ranges.size(), answers.data())
            .ok();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(answered, 2u);
}

TEST(ServiceAllocationTest, EngineBatchesAreAllocationFreeOnceWarm) {
  // The columnar answer engine's scratch lives in thread-local arenas
  // that grow to the high-water batch size: after one warm-up batch —
  // which includes shard-spanning queries, the shape that exercises the
  // piece-expansion scratch — steady-state batches through the plan
  // allocate nothing.
  Rng data_rng(3);
  Histogram data = Histogram::FromCounts(
      ZipfCounts(1 << 12, 1.2, 4 << 12, &data_rng));
  QueryService service;
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.shards = 8;
  ASSERT_TRUE(service.Publish(data, options, 9).ok());
  ASSERT_NE(service.snapshot()->answer_plan(), nullptr);

  // FixedWorkload draws ranges of width domain/3 — far wider than a
  // shard (width 512), so the batch is dominated by spanning queries.
  std::vector<Interval> workload = FixedWorkload(1 << 12);
  std::vector<double> answers(workload.size());
  std::size_t answered = 0;
  std::size_t allocs = AllocationsDuring([&] {
    answered += service
                    .TryQueryBatch(workload.data(), workload.size(),
                                   answers.data())
                    .ok();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(answered, 2u);
}

TEST(BuildAllocationTest, DefaultHBarBuildWorksInOneNodeBuffer) {
  // serve's default release at n = 2^16: k = 2, round+prune, 131 071
  // nodes (1 MiB). Counts, noise, inference, pruning and rounding all
  // rewrite one node buffer; the leaf level (512 KiB) is the only other
  // node-sized request. Round+prune breaks consistency, so the
  // consistency check streams its prefix sums and no prefix table is
  // built. A pass that copies the node vector again, or a table built
  // only to be freed, adds a buffer and fails here.
  constexpr std::int64_t kDomain = 1 << 16;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  const UniversalOptions options;
  ASSERT_TRUE(options.round_to_nonnegative_integers);
  ASSERT_TRUE(options.prune_nonpositive_subtrees);
  Rng rng(9);
  const Requests requests = RequestsDuring([&] {
    HBarEstimator h_bar(data, options, &rng);
    EXPECT_EQ(h_bar.node_estimates().size(), 131071u);
    EXPECT_FALSE(h_bar.uses_prefix_fast_path());
  });
  EXPECT_LE(requests.large_buffers, 2u);
  EXPECT_LE(requests.bytes, static_cast<std::size_t>(1.6 * (1 << 20)));
}

TEST(BuildAllocationTest, DefaultSnapshotBuildAddsOnlyTheShardSlice) {
  // The same release through the serving gate: Snapshot::Build adds the
  // shard's slice of the histogram (512 KiB) and builds the shard with
  // the plain constructor, so three node-sized requests in all. A
  // discarded prefix table or a copied state vector fails here.
  constexpr std::int64_t kDomain = 1 << 16;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  const SnapshotOptions options;
  ASSERT_EQ(options.strategy, StrategyKind::kHBar);
  ASSERT_EQ(options.shards, 1);
  Rng rng(9);
  const Requests requests = RequestsDuring([&] {
    Result<std::shared_ptr<const Snapshot>> built =
        Snapshot::Build(data, options, 1, &rng);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built.value()->answer_plan(), nullptr);
  });
  EXPECT_LE(requests.large_buffers, 3u);
  EXPECT_LE(requests.bytes, static_cast<std::size_t>(2.1 * (1 << 20)));
}

TEST_F(EstimatorAllocationTest, LegacyDecomposeRangeStillAllocates) {
  // Sanity check that the counter actually observes the old path's
  // allocation — otherwise the zero readings above would prove nothing.
  const TreeLayout& tree = h_tilde_->tree();
  std::size_t allocs = AllocationsDuring([&] {
    for (const Interval& q : workload_) {
      sink_ += static_cast<double>(DecomposeRange(tree, q).size());
    }
  });
  EXPECT_GE(allocs, workload_.size());
}

}  // namespace
}  // namespace dphist
