// Proves the hot query paths allocate nothing: this binary replaces the
// global operator new/delete with counting versions and asserts that
// answering ranges — scalar or batched, on all three universal
// estimators and on the raw tree visitor — performs zero heap
// allocations per query, and that a warm text-protocol command and a
// warm binary QUERY frame are parsed, answered and rendered without one.
// It also counts requested bytes, to bound what one H-bar build, one
// default Snapshot::Build, one wavelet Snapshot::Build, one snapshot
// persist and one restore, one histogram copy, one cold unsharded
// engine batch, one read session script, one hostile `qb` line and one
// hostile QUERY payload ask for.
// Kept out of dphist_tests so the instrumentation cannot interfere with
// unrelated suites.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <istream>
#include <memory>
#include <new>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/laplace.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "engine/answer_engine.h"
#include "estimators/universal.h"
#include "mechanism/laplace_mechanism.h"
#include "query/hierarchical_query.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "runtime/session.h"
#include "runtime/transport.h"
#include "runtime/wire_format.h"
#include "service/query_service.h"
#include "service/snapshot.h"
#include "storage/epoch_store.h"
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

/// `count` ranges of `size` positions at uniformly random locations.
std::vector<Interval> RangesOfSize(std::int64_t domain_size,
                                   std::int64_t size, std::int64_t count,
                                   Rng* rng) {
  std::vector<Interval> ranges;
  ranges.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t lo = rng->NextInt(0, domain_size - size);
    ranges.emplace_back(lo, lo + size - 1);
  }
  return ranges;
}

std::vector<Interval> FixedWorkload(std::int64_t domain_size) {
  Rng rng(5);
  return RangesOfSize(domain_size, domain_size / 3, 256, &rng);
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

TEST(ServiceAllocationTest, ColdUnshardedBatchGrowsOnlyTheGatherArrays) {
  // A one-shard plan has no shard boundary to span, so a thread's first
  // batch through it grows the two gather arrays (16 B per range) and
  // none of the spanning scratch (60 B per range more), which a thread
  // would otherwise keep for the life of the process.
  constexpr std::int64_t kDomain = 1 << 12;
  Rng data_rng(3);
  Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  QueryService service;
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  ASSERT_TRUE(service.Publish(data, options, 9).ok());
  const engine::AnswerPlan* plan = service.snapshot()->answer_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->shard_count, 1);

  Rng range_rng(5);
  const std::vector<Interval> ranges =
      RangesOfSize(kDomain, kDomain / 3, 1 << 16, &range_rng);
  std::vector<double> answers(ranges.size());
  const std::size_t before = g_allocated_bytes.load();
  std::thread cold([&] {
    engine::AnswerBatch(*plan, ranges.data(), nullptr, ranges.size(),
                        answers.data());
  });
  cold.join();
  EXPECT_LE(g_allocated_bytes.load() - before, 16 * ranges.size() + 4096);
  EXPECT_EQ(answers[0], service.snapshot()->RangeCount(ranges[0]));
}

TEST(BuildAllocationTest, LaplaceNoiseDrawsThroughAStackBuffer) {
  // A default H-bar build's worth of draws: the uniforms of each state
  // block live on the stack, so perturbing a warm buffer asks the heap
  // for nothing.
  std::vector<double> values(std::size_t{1} << 17, 0.0);
  const LaplaceDistribution noise(17.0);
  Rng rng(9);
  EXPECT_EQ(AllocationsDuring([&] {
              noise.AddSamplesTo(values.data(), values.size(), &rng);
            }),
            0u);
  EXPECT_NE(values[0], 0.0);
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

TEST(BuildAllocationTest, DefaultSnapshotBuildReadsTheHistogramInPlace) {
  // The same release through the serving gate: Snapshot::Build hands the
  // one shard the histogram itself (no 512 KiB slice copy) and builds it
  // with the plain constructor, so two node-sized requests in all. A
  // slice copy, a discarded prefix table or a copied state vector fails
  // here.
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
  EXPECT_LE(requests.large_buffers, 2u);
  EXPECT_LE(requests.bytes, static_cast<std::size_t>(1.6 * (1 << 20)));
}

TEST(BuildAllocationTest, WaveletBuildMovesItsTransformBuffers) {
  // The release replan-durable republishes every 250 ms: wavelet over 2
  // shards at n = 2^18, so each shard transforms 2^17 leaves (1 MiB).
  // The padded input becomes the transform's working buffer and the
  // inverse's output becomes the leaves, which leaves five node-sized
  // buffers per shard: the counts slice, the padded input, the
  // coefficients, the leaves and the prefix table. Copying the input or
  // the leaves again adds one per shard.
  constexpr std::int64_t kDomain = 1 << 18;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  SnapshotOptions options;
  options.strategy = StrategyKind::kWavelet;
  options.shards = 2;
  Rng rng(9);
  const Requests requests = RequestsDuring([&] {
    Result<std::shared_ptr<const Snapshot>> built =
        Snapshot::Build(data, options, 1, &rng);
    ASSERT_TRUE(built.ok());
    EXPECT_NE(built.value()->answer_plan(), nullptr);
  });
  EXPECT_LE(requests.large_buffers, 10u);
  EXPECT_LE(requests.bytes, static_cast<std::size_t>(10.1 * (1 << 20)));
}

/// Reads a string's bytes as an istream without copying them.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(std::string& text) {
    setg(text.data(), text.data(), text.data() + text.size());
  }
};

TEST(SessionAllocationTest, ScriptReadKeepsOneRangeArray) {
  // 100 000 bare "lo hi" lines merge into one step over one range array,
  // which grows by doubling: under 2 x 16 B per range of its final
  // power-of-two capacity. A command object with its own range vector
  // per line asks for more than twice that.
  constexpr std::size_t kLines = 100000;
  std::string text;
  for (std::size_t i = 0; i < kLines; ++i) {
    text += std::to_string(i % 4000) + " " + std::to_string(i % 4000 + 9) +
            "\n";
  }
  const Requests requests = RequestsDuring([&] {
    StringViewBuf buffer(text);
    std::istream in(&buffer);
    EXPECT_TRUE(runtime::ReadSessionScript(in, 1 << 16).ok());
  });
  EXPECT_LE(requests.bytes,
            2 * sizeof(Interval) * std::bit_ceil(kLines) + 64 * 1024);
}

TEST(SessionAllocationTest, WarmTextBatchIsParsedAnsweredAndRenderedInPlace) {
  // One `qb 64` line through the text path every session shares,
  // ExecuteLine: parsed into the executor's reused command, answered,
  // rendered (64 answers and the receipt) into the output string the
  // socket transport hands its writer, then the trigger poll. The
  // release is the one replan-durable's planner picks, wavelet over 2
  // shards with rounding, so the engine answers and every answer prints
  // as an integer.
  constexpr std::int64_t kDomain = 1 << 12;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  QueryService service;
  runtime::EpochManagerOptions manager_options;
  manager_options.base.strategy = StrategyKind::kWavelet;
  manager_options.base.shards = 2;
  manager_options.async = false;
  runtime::EpochManager manager(&service, data, manager_options, 9);
  ASSERT_TRUE(manager.PublishInitial().ok());
  ASSERT_NE(service.snapshot()->answer_plan(), nullptr);

  Rng range_rng(5);
  std::string line = "qb 64";
  for (const Interval& range :
       RangesOfSize(kDomain, kDomain / 3, 64, &range_rng)) {
    line += " " + std::to_string(range.lo()) + " " +
            std::to_string(range.hi());
  }
  std::string outbuf;
  runtime::SessionWriter writer(&outbuf);
  runtime::SessionExecutor executor(writer, service, manager);
  std::size_t served = 0;
  const std::size_t allocs = AllocationsDuring([&] {
    outbuf.clear();
    if (executor.ExecuteLine(line, 1)) served += 1;
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(std::count(outbuf.begin(), outbuf.end(), '\n'), 65);
  EXPECT_NE(outbuf.find("# batch n=64 epoch=1\n"), std::string::npos);
}

TEST(SessionAllocationTest, BatchCountAloneReservesNothing) {
  // A `qb` count is a claim, not data: a line that declares 2^20 ranges
  // and carries one stores what it carried before it is refused, and
  // never reserves the 16 MiB its count asks for.
  const Requests requests = RequestsDuring([] {
    runtime::SessionCommand command;
    const Result<bool> parsed =
        runtime::ParseSessionLine("qb 1048576 0 1", 1 << 16, 1, &command);
    EXPECT_FALSE(parsed.ok());
  });
  EXPECT_LT(requests.bytes, 4096u);
}

/// Reads exactly `size` bytes from `fd` into `out`.
bool ReadExactly(int fd, char* out, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, out, size, 0);
    if (n <= 0) return false;
    out += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one frame from `fd` into `buffer` (`capacity` bytes) and
/// returns its type byte, or -1. A raw client with fixed buffers, so
/// the allocations counted around it are the server's.
int ReadFrameType(int fd, char* buffer, std::size_t capacity) {
  char type = 0;
  if (!ReadExactly(fd, &type, 1)) return -1;
  std::uint64_t length = 0;
  for (int shift = 0;; shift += 7) {
    char byte = 0;
    if (shift > 63 || !ReadExactly(fd, &byte, 1)) return -1;
    length |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  if (length > capacity) return -1;
  return ReadExactly(fd, buffer, length) ? static_cast<unsigned char>(type)
                                         : -1;
}

TEST(WireAllocationTest, WarmBinaryQueryFrameAllocatesNothing) {
  // One 64-range QUERY frame per round trip through a live socket
  // server: the worker decodes it, parses it into its reused frame,
  // answers it and encodes ANSWERS straight into the connection's
  // output buffer. The release is serve's default (walker-served
  // H-bar, round+prune), the one hbar-default serves.
  constexpr std::int64_t kDomain = 1 << 12;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  QueryService service;
  runtime::EpochManagerOptions manager_options;
  manager_options.async = false;
  runtime::EpochManager manager(&service, data, manager_options, 9);
  ASSERT_TRUE(manager.PublishInitial().ok());
  runtime::TransportOptions transport;
  transport.workers = 1;
  runtime::SocketServer server(service, manager, transport);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::vector<char> buffer(1 << 16);
  char c = 0;
  while (ReadExactly(fd, &c, 1) && c != '\n') {
  }  // the "# serving" banner
  const char magic = static_cast<char>(runtime::wire::kMagic);
  ASSERT_EQ(::send(fd, &magic, 1, MSG_NOSIGNAL), 1);
  ASSERT_EQ(ReadFrameType(fd, buffer.data(), buffer.size()),
            static_cast<int>(runtime::wire::FrameType::kHello));

  Rng range_rng(5);
  const std::vector<Interval> ranges =
      RangesOfSize(kDomain, kDomain / 3, 64, &range_rng);
  std::string request;
  runtime::wire::EncodeQuery(1, 0, ranges.data(), ranges.size(), &request);
  std::size_t answered = 0;
  const auto round_trip = [&] {
    for (int i = 0; i < 8; ++i) {
      if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
        return;
      }
      if (ReadFrameType(fd, buffer.data(), buffer.size()) ==
          static_cast<int>(runtime::wire::FrameType::kAnswers)) {
        answered += 1;
      }
    }
  };
  EXPECT_EQ(AllocationsDuring(round_trip), 0u);
  EXPECT_EQ(answered, 16u);
  ::close(fd);
  server.Stop();
}

TEST(WireAllocationTest, QueryCountAloneReservesNothing) {
  // A QUERY count is a claim, not data: a 5-byte payload (id, epoch,
  // then a count of 2^20) fails as truncated before reserving the
  // 16 MiB its count asks for.
  std::string payload;
  runtime::wire::PutVarint(&payload, 1);
  runtime::wire::PutVarint(&payload, 0);
  runtime::wire::PutVarint(&payload, std::uint64_t{1} << 20);
  ASSERT_EQ(payload.size(), 5u);
  runtime::wire::QueryFrame frame;
  const Requests requests = RequestsDuring([&] {
    EXPECT_FALSE(runtime::wire::ParseQuery(payload, 1 << 16, &frame).ok());
  });
  EXPECT_LT(requests.bytes, 4096u);
}

TEST(BuildAllocationTest, PersistingAsksForNoImageSizedBuffer) {
  // A durable publish seals the release's state (here wavelet over 2
  // shards at n = 2^16: 2 x 256 KiB of leaves) straight into the store's
  // page staging, which Open allocated. Persisting asks only for paths,
  // the meta page and the stream's framing, so any buffer sized to the
  // image, or a piece of it past 64 KiB, fails here.
  constexpr std::int64_t kDomain = 1 << 16;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  SnapshotOptions options;
  options.strategy = StrategyKind::kWavelet;
  options.shards = 2;
  Rng rng(9);
  Result<std::shared_ptr<const Snapshot>> built =
      Snapshot::Build(data, options, 1, &rng);
  ASSERT_TRUE(built.ok());
  const std::string dir = ::testing::TempDir() + "/alloc_persist";
  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<storage::EpochStore>> store =
      storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  const Requests requests = RequestsDuring([&] {
    EXPECT_TRUE(store.value()->PersistSnapshot(*built.value(), nullptr).ok());
  });
  EXPECT_LE(requests.bytes, 64 * 1024);
  std::filesystem::remove_all(dir);
}

TEST(BuildAllocationTest, RestoringDecodesPagesStraightIntoTheShards) {
  // A warm restart of the release PersistingAsksForNoImageSizedBuffer
  // persists. Recover reads snapshot.db through the page staging Open
  // allocated and copies each payload straight into the shards' leaf
  // arrays; each restored shard then builds its prefix table. Those are
  // the only node-sized requests: a buffer holding the data stream, or a
  // copy of a shard's leaves, fails here. The answer plan's row comes
  // from aligned_alloc, which this counter does not see.
  constexpr std::int64_t kDomain = 1 << 16;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  SnapshotOptions options;
  options.strategy = StrategyKind::kWavelet;
  options.shards = 2;
  Rng rng(9);
  Result<std::shared_ptr<const Snapshot>> built =
      Snapshot::Build(data, options, 1, &rng);
  ASSERT_TRUE(built.ok());
  const std::string dir = ::testing::TempDir() + "/alloc_restore";
  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<storage::EpochStore>> store =
      storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->PersistSnapshot(*built.value(), nullptr).ok());
  const Requests requests = RequestsDuring([&] {
    Result<storage::RecoveredState> state = store.value()->Recover();
    ASSERT_TRUE(state.ok());
    ASSERT_NE(state.value().snapshot, nullptr);
    EXPECT_EQ(state.value().snapshot->shard_count(), 2);
  });
  // Per shard: 2^15 leaves and a prefix table of 2^15 + 1 sums.
  constexpr std::size_t kShardLeaves = kDomain / 2;
  constexpr std::size_t kKept = 2 * (2 * kShardLeaves + 1) * sizeof(double);
  EXPECT_LE(requests.bytes, kKept + 64 * 1024);
  std::filesystem::remove_all(dir);
}

TEST(HistogramAllocationTest, CopyAsksForTheCountsOnly) {
  // EpochManager takes its histogram by value, and perfbench has built
  // the prefix table computing true answers. A copy carries the counts
  // and leaves the table behind, to be built on its first Count():
  // copying the table too asks for twice the bytes.
  constexpr std::int64_t kDomain = 1 << 16;
  Rng data_rng(3);
  const Histogram data = Histogram::FromCounts(
      ZipfCounts(kDomain, 1.2, 4 * kDomain, &data_rng));
  ASSERT_GT(data.Total(), 0.0);  // builds the prefix table
  const Requests requests = RequestsDuring([&] {
    const Histogram copy = data;
    EXPECT_EQ(copy.size(), kDomain);
  });
  EXPECT_LE(requests.bytes, kDomain * sizeof(double));
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
