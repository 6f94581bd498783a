#include "storage/epoch_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"
#include "storage/codec.h"
#include "storage/fd_io.h"
#include "storage/page.h"
#include "tree/tree_layout.h"

namespace dphist::storage {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Histogram TestData(std::int64_t n) {
  Rng rng(17);
  return Histogram::FromCounts(ZipfCounts(n, 1.2, 5 * n, &rng));
}

std::vector<Interval> Probes(std::int64_t n) {
  return {Interval(0, 0), Interval(0, n - 1), Interval(n / 4, n / 2),
          Interval(3, 3 + n / 3), Interval(n / 2, n - 1)};
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Per-shard states of the shape Snapshot::Restore expects for
/// (options, n), filled by exact arithmetic so no RNG or libm is
/// involved: L~ and wavelet persist one leaf per position, H~ and H-bar
/// one value per tree node.
std::vector<std::vector<double>> FixedShardStates(
    const SnapshotOptions& options, std::int64_t n) {
  const bool tree = options.strategy == StrategyKind::kHTilde ||
                    options.strategy == StrategyKind::kHBar;
  const std::int64_t width = (n + options.shards - 1) / options.shards;
  std::vector<std::vector<double>> states;
  for (std::int64_t lo = 0; lo < n; lo += width) {
    const std::int64_t shard_domain = std::min(width, n - lo);
    const std::int64_t size =
        tree ? TreeLayout(shard_domain, options.branching).node_count()
             : shard_domain;
    std::vector<double> state(static_cast<std::size_t>(size));
    for (std::size_t j = 0; j < state.size(); ++j) {
      state[j] = static_cast<double>((j * 7 + states.size()) % 23) * 0.1 - 0.5;
    }
    states.push_back(std::move(state));
  }
  return states;
}

/// A profile restored from fixed values, not built by GeometricSweep, so
/// libm cannot move its bits. Each length has a bucket of its own.
planner::WorkloadProfile FixedProfile(std::int64_t n) {
  auto profile = planner::WorkloadProfile::Restore(
      n, {{1, 2.0}, {4, 0.375}, {17, 3.5}, {n, 1.25}});
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

/// Writes `dir`/snapshot.db by hand, sealed through page.h: a meta page
/// for an epoch-4 release of `options` over `n` positions that records
/// `data`'s length and CRC, then `data` in full data pages. Every page
/// verifies and the stream's length and CRC match, so only what `data`
/// itself says can be wrong.
void WriteSnapshotFile(const std::string& dir, std::int64_t n,
                       const SnapshotOptions& options,
                       const ByteWriter& data) {
  ByteWriter meta;
  meta.U16(1);  // format version
  meta.U64(4);  // epoch
  meta.I64(n);
  meta.F64(options.epsilon);
  meta.U16(0);  // L~
  meta.I64(options.branching);
  meta.I64(options.shards);
  meta.U8(options.round_to_nonnegative_integers ? 1 : 0);
  meta.U8(options.prune_nonpositive_subtrees ? 1 : 0);
  meta.I64(options.build_threads);
  meta.F64(2.0);  // retired cache-admission threshold
  meta.U64(data.size());
  meta.U32(Crc32(data.data().data(), data.size()));

  std::filesystem::create_directories(dir);
  std::ofstream file(dir + "/snapshot.db", std::ios::binary);
  Page page;
  ASSERT_TRUE(SealPage(PageType::kSnapshotMeta, meta.data().data(),
                       meta.size(), &page)
                  .ok());
  file.write(reinterpret_cast<const char*>(&page), sizeof(page));
  for (std::size_t offset = 0; offset < data.size();
       offset += kPagePayloadCapacity) {
    const std::size_t size =
        std::min(kPagePayloadCapacity, data.size() - offset);
    ASSERT_TRUE(SealPage(PageType::kSnapshotData,
                         data.data().data() + offset, size, &page)
                    .ok());
    file.write(reinterpret_cast<const char*>(&page), sizeof(page));
  }
  ASSERT_TRUE(file.good());
}

/// Recovers `dir` and expects an IoError whose message names `reason`.
void ExpectRefused(const std::string& dir, const std::string& reason) {
  auto store = EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto state = store.value()->Recover();
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kIoError)
      << state.status().ToString();
  EXPECT_NE(state.status().message().find(reason), std::string::npos)
      << state.status().ToString();
}

TEST(EpochStoreTest, FreshDirectoryRecoversEmpty) {
  auto store = EpochStore::Open(FreshDir("es_fresh"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state.value().ledger.empty());
  EXPECT_EQ(state.value().last_swap_epoch, 0u);
  EXPECT_FALSE(state.value().wal_tail_torn);
  EXPECT_EQ(state.value().snapshot, nullptr);
  EXPECT_FALSE(state.value().profile.has_value());
}

TEST(EpochStoreTest, WalLedgerSurvivesReopen) {
  const std::string dir = FreshDir("es_ledger");
  {
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->AppendSpend(0.5, "publish (initial)").ok());
    ASSERT_TRUE(store.value()->AppendEpochSwap(1).ok());
    ASSERT_TRUE(store.value()->AppendSpend(0.25, "replan (manual)").ok());
    ASSERT_TRUE(store.value()->AppendEpochSwap(2).ok());
  }
  auto store = EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state.value().ledger.size(), 2u);
  EXPECT_EQ(state.value().ledger[0].epsilon, 0.5);
  EXPECT_EQ(state.value().ledger[0].purpose, "publish (initial)");
  EXPECT_EQ(state.value().ledger[1].epsilon, 0.25);
  EXPECT_EQ(state.value().last_swap_epoch, 2u);
}

TEST(EpochStoreTest, RollbackToErasesChargeAndSwap) {
  auto store = EpochStore::Open(FreshDir("es_rollback"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->AppendSpend(0.5, "kept").ok());
  auto offset = store.value()->AppendSpend(0.25, "failed publish");
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(store.value()->AppendEpochSwap(7).ok());
  ASSERT_TRUE(store.value()->RollbackTo(offset.value()).ok());

  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state.value().ledger.size(), 1u);
  EXPECT_EQ(state.value().ledger[0].purpose, "kept");
  EXPECT_EQ(state.value().last_swap_epoch, 0u);
}

TEST(EpochStoreTest, SnapshotRoundTripIsBitIdenticalAllStrategies) {
  const std::int64_t n = 96;
  Histogram data = TestData(n);
  for (StrategyKind strategy :
       {StrategyKind::kLTilde, StrategyKind::kHTilde, StrategyKind::kHBar,
        StrategyKind::kWavelet}) {
    SCOPED_TRACE(StrategyKindName(strategy));
    SnapshotOptions options;
    options.strategy = strategy;
    options.epsilon = 0.4;
    options.shards = 3;
    Rng rng(99);
    auto built = Snapshot::Build(data, options, 5, &rng);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    auto store = EpochStore::Open(
        FreshDir(std::string("es_round_") + StrategyKindName(strategy)));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->PersistSnapshot(*built.value(), nullptr).ok());

    auto state = store.value()->Recover();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_NE(state.value().snapshot, nullptr);
    const Snapshot& restored = *state.value().snapshot;
    EXPECT_EQ(restored.epoch(), 5u);
    EXPECT_EQ(restored.domain_size(), n);
    EXPECT_EQ(restored.strategy(), strategy);
    EXPECT_EQ(restored.shard_count(), built.value()->shard_count());
    for (const Interval& probe : Probes(n)) {
      // EXPECT_EQ, not NEAR: recovery must reproduce the released
      // answers bit for bit, or it is a different (unpaid-for) release.
      EXPECT_EQ(restored.RangeCount(probe), built.value()->RangeCount(probe))
          << "probe [" << probe.lo() << ", " << probe.hi() << "]";
    }
  }
}

TEST(EpochStoreTest, LatestPersistWins) {
  const std::int64_t n = 48;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kHBar;
  options.epsilon = 0.3;
  Rng rng(7);
  auto first = Snapshot::Build(data, options, 1, &rng);
  auto second = Snapshot::Build(data, options, 2, &rng);
  ASSERT_TRUE(first.ok() && second.ok());

  auto store = EpochStore::Open(FreshDir("es_latest"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->PersistSnapshot(*first.value(), nullptr).ok());
  ASSERT_TRUE(store.value()->PersistSnapshot(*second.value(), nullptr).ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok());
  ASSERT_NE(state.value().snapshot, nullptr);
  EXPECT_EQ(state.value().snapshot->epoch(), 2u);
  for (const Interval& probe : Probes(n)) {
    EXPECT_EQ(state.value().snapshot->RangeCount(probe),
              second.value()->RangeCount(probe));
  }
}

TEST(EpochStoreTest, WorkloadProfileRoundTrips) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kHTilde;
  options.epsilon = 0.2;
  Rng rng(3);
  auto built = Snapshot::Build(data, options, 1, &rng);
  ASSERT_TRUE(built.ok());

  planner::WorkloadProfile profile(n);
  profile.AddLength(8);
  profile.AddLength(31);
  profile.AddLength(5, 2.5);

  auto store = EpochStore::Open(FreshDir("es_profile"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->PersistSnapshot(*built.value(), &profile).ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state.value().profile.has_value());
  const planner::WorkloadProfile& restored = *state.value().profile;
  EXPECT_EQ(restored.domain_size(), n);
  EXPECT_EQ(restored.length_weights(), profile.length_weights());
  EXPECT_EQ(restored.total_weight(), profile.total_weight());
}

// A state dir written before profiles were bucketed holds a file-planned
// profile's exact lengths and 64 non-zero position-heat slots, under the
// same format version. It must still restore: the heat is skipped and
// the 100 lengths fold into their 36 buckets.
TEST(EpochStoreTest, ExactLengthProfileFromAnOlderWriterRestoresBucketed) {
  const std::int64_t n = 1000;
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.epsilon = 0.5;
  const std::vector<std::vector<double>> states = FixedShardStates(options, n);

  std::map<std::int64_t, double> exact;
  planner::WorkloadProfile expected(n);
  double total = 0.0;
  for (std::int64_t i = 0; i < 100; ++i) {
    const std::int64_t length = 1 + 9 * i + (i * i) % 7;
    const double weight = 0.5 * static_cast<double>(1 + i % 4);
    exact[length] = weight;
  }
  ASSERT_EQ(exact.size(), 100u);
  for (const auto& [length, weight] : exact) {
    expected.AddLength(length, weight);
    total += weight;
  }

  ByteWriter data;
  data.U64(states.size());
  for (const std::vector<double>& state : states) data.F64Vector(state);
  data.U8(1);
  data.I64(n);
  data.U64(exact.size());
  for (const auto& [length, weight] : exact) {
    data.I64(length);
    data.F64(weight);
  }
  for (int bin = 0; bin < 64; ++bin) data.F64(0.25 * (bin % 3));

  ByteWriter meta;
  meta.U16(1);  // format version
  meta.U64(4);  // epoch
  meta.I64(n);
  meta.F64(options.epsilon);
  meta.U16(0);  // L~
  meta.I64(options.branching);
  meta.I64(options.shards);
  meta.U8(options.round_to_nonnegative_integers ? 1 : 0);
  meta.U8(options.prune_nonpositive_subtrees ? 1 : 0);
  meta.I64(options.build_threads);
  meta.F64(2.0);  // retired cache-admission threshold
  meta.U64(data.size());
  meta.U32(Crc32(data.data().data(), data.size()));

  const std::string dir = FreshDir("es_exact_profile");
  std::filesystem::create_directories(dir);
  {
    std::ofstream file(dir + "/snapshot.db", std::ios::binary);
    Page page;
    ASSERT_TRUE(SealPage(PageType::kSnapshotMeta, meta.data().data(),
                         meta.size(), &page)
                    .ok());
    file.write(reinterpret_cast<const char*>(&page), sizeof(page));
    for (std::size_t offset = 0; offset < data.size();
         offset += kPagePayloadCapacity) {
      const std::size_t size =
          std::min(kPagePayloadCapacity, data.size() - offset);
      ASSERT_TRUE(SealPage(PageType::kSnapshotData,
                           data.data().data() + offset, size, &page)
                      .ok());
      file.write(reinterpret_cast<const char*>(&page), sizeof(page));
    }
  }

  auto store = EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_NE(state.value().snapshot, nullptr);
  EXPECT_EQ(state.value().snapshot->epoch(), 4u);
  ASSERT_TRUE(state.value().profile.has_value());
  const planner::WorkloadProfile& restored = *state.value().profile;
  EXPECT_EQ(restored.length_weights().size(), 36u);
  EXPECT_EQ(restored.length_weights(), expected.length_weights());
  EXPECT_DOUBLE_EQ(restored.total_weight(), total);
}

// The snapshot file format, pinned byte for byte: each fixed release
// must persist to exactly this many bytes with exactly this CRC-32, and
// recover to bit-identical shard states. A change to the writer that
// moves a single byte fails here, whatever the reader accepts.
TEST(EpochStoreTest, SnapshotFileFormatIsPinned) {
  struct Pinned {
    StrategyKind strategy;
    std::int64_t n;
    std::int64_t shards;
    bool with_profile;
    std::uint64_t file_size;
    std::uint32_t file_crc;
  };
  // n = 1000 spreads every release over several data pages; the last
  // case spans more pages than one write batch holds.
  const Pinned pins[] = {
      {StrategyKind::kLTilde, 1000, 1, false, 12288, 0xBFBAF6A6u},
      {StrategyKind::kLTilde, 1000, 3, false, 12288, 0x2290C1E5u},
      {StrategyKind::kHTilde, 1000, 1, false, 24576, 0x123B6FA4u},
      {StrategyKind::kHTilde, 1000, 3, false, 32768, 0xBC4A2064u},
      {StrategyKind::kHBar, 1000, 1, false, 24576, 0xEFD64A8Du},
      {StrategyKind::kHBar, 1000, 3, false, 32768, 0x6F95805Eu},
      {StrategyKind::kHBar, 1000, 3, true, 32768, 0xFD658788u},
      {StrategyKind::kWavelet, 1000, 1, false, 12288, 0xBACDF528u},
      {StrategyKind::kWavelet, 1000, 3, false, 12288, 0x27E7C26Bu},
      {StrategyKind::kLTilde, 36000, 1, false, 294912, 0x632EBFD3u},
  };
  for (const Pinned& pin : pins) {
    const std::int64_t n = pin.n;
    SCOPED_TRACE(std::string(StrategyKindName(pin.strategy)) + " n=" +
                 std::to_string(n) + " x" + std::to_string(pin.shards) +
                 (pin.with_profile ? " + profile" : ""));
    SnapshotOptions options;
    options.strategy = pin.strategy;
    options.epsilon = 0.5;
    options.shards = pin.shards;
    const std::vector<std::vector<double>> states =
        FixedShardStates(options, n);
    auto snapshot = Snapshot::Restore(options, 9, n, states);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    std::optional<planner::WorkloadProfile> profile;
    if (pin.with_profile) profile = FixedProfile(n);

    const std::string dir = FreshDir("es_pinned");
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()
                    ->PersistSnapshot(*snapshot.value(),
                                      profile ? &*profile : nullptr)
                    .ok());
    const std::string bytes = ReadFile(dir + "/snapshot.db");
    EXPECT_EQ(bytes.size(), pin.file_size);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), pin.file_crc);

    auto state = store.value()->Recover();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_NE(state.value().snapshot, nullptr);
    const Snapshot& restored = *state.value().snapshot;
    EXPECT_EQ(restored.epoch(), 9u);
    EXPECT_EQ(restored.domain_size(), n);
    EXPECT_EQ(restored.strategy(), pin.strategy);
    ASSERT_EQ(restored.shard_count(),
              static_cast<std::int64_t>(states.size()));
    for (std::int64_t i = 0; i < restored.shard_count(); ++i) {
      const std::vector<double>* got = restored.shard(i).SerializableState();
      ASSERT_NE(got, nullptr);
      EXPECT_TRUE(BitIdentical(*got, states[static_cast<std::size_t>(i)]))
          << "shard " << i;
    }
    ASSERT_EQ(state.value().profile.has_value(), pin.with_profile);
    if (pin.with_profile) {
      EXPECT_EQ(state.value().profile->length_weights(),
                profile->length_weights());
    }
  }
}

// More pins, each placing a piece of the data stream against a page
// boundary. The stream is the shard count, then each shard's count and
// doubles, then the profile block; a data page carries 4080 payload
// bytes, so shard 0 of L~ over 2 x w positions ends its doubles at
// stream byte 16 + 8w.
TEST(EpochStoreTest, PageBoundaryLayoutsArePinned) {
  struct Pinned {
    const char* layout;
    StrategyKind strategy;
    std::int64_t n;
    std::int64_t shards;
    bool with_profile;
    std::uint64_t file_size;
    std::uint32_t file_crc;
  };
  const Pinned pins[] = {
      {"shard 0 ends exactly at a payload's end (w = 508)",
       StrategyKind::kLTilde, 1016, 2, false, 12288, 0x76428752u},
      {"shard 0 ends one double before it (w = 507)", StrategyKind::kLTilde,
       1014, 2, false, 12288, 0x162F2E2Du},
      {"shard 0 ends one double after it (w = 509)", StrategyKind::kLTilde,
       1018, 2, false, 16384, 0x4389391Du},
      {"profile block from stream byte 3776 to 4369", StrategyKind::kLTilde,
       470, 1, true, 12288, 0x5A9A27A3u},
      {"one shard at n = 2^16 over five write batches", StrategyKind::kHBar,
       1 << 16, 1, false, 1060864, 0x7F027F63u},
  };
  for (const Pinned& pin : pins) {
    const std::int64_t n = pin.n;
    SCOPED_TRACE(pin.layout);
    SnapshotOptions options;
    options.strategy = pin.strategy;
    options.epsilon = 0.5;
    options.shards = pin.shards;
    const std::vector<std::vector<double>> states =
        FixedShardStates(options, n);
    auto snapshot = Snapshot::Restore(options, 9, n, states);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    std::optional<planner::WorkloadProfile> profile;
    if (pin.with_profile) profile = FixedProfile(n);

    const std::string dir = FreshDir("es_boundary");
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()
                    ->PersistSnapshot(*snapshot.value(),
                                      profile ? &*profile : nullptr)
                    .ok());
    const std::string bytes = ReadFile(dir + "/snapshot.db");
    EXPECT_EQ(bytes.size(), pin.file_size);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), pin.file_crc);

    auto state = store.value()->Recover();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_NE(state.value().snapshot, nullptr);
    const Snapshot& restored = *state.value().snapshot;
    EXPECT_EQ(restored.epoch(), 9u);
    ASSERT_EQ(restored.shard_count(),
              static_cast<std::int64_t>(states.size()));
    for (std::int64_t i = 0; i < restored.shard_count(); ++i) {
      const std::vector<double>* got = restored.shard(i).SerializableState();
      ASSERT_NE(got, nullptr);
      EXPECT_TRUE(BitIdentical(*got, states[static_cast<std::size_t>(i)]))
          << "shard " << i;
    }
    ASSERT_EQ(state.value().profile.has_value(), pin.with_profile);
    if (pin.with_profile) {
      EXPECT_EQ(state.value().profile->length_weights(),
                profile->length_weights());
    }
  }
}

TEST(EpochStoreTest, CorruptSnapshotRefusesLoudly) {
  const std::int64_t n = 2000;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.epsilon = 0.2;
  Rng rng(11);
  auto built = Snapshot::Build(data, options, 1, &rng);
  ASSERT_TRUE(built.ok());

  const std::string dir = FreshDir("es_corrupt");
  {
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->PersistSnapshot(*built.value(), nullptr).ok());
  }
  const std::string pristine = ReadFile(dir + "/snapshot.db");
  // Meta page plus several data pages, so a page-boundary cut can land
  // before the data stream ends.
  ASSERT_GE(pristine.size(), 4 * kPageSize);

  struct Damage {
    const char* name;
    void (*apply)(std::string* file);
  };
  const Damage damages[] = {
      {"zero-length file", [](std::string* file) { file->clear(); }},
      {"cut at a page boundary",
       [](std::string* file) { file->resize(2 * kPageSize); }},
      {"torn final page",
       [](std::string* file) { file->resize(file->size() - 100); }},
      {"byte flipped in the meta payload",
       [](std::string* file) { (*file)[kPageHeaderSize + 5] ^= 0x10; }},
      {"byte flipped in a data payload",
       [](std::string* file) { (*file)[kPageSize + 100] ^= 0x10; }},
      {"data page typed as a meta page",
       [](std::string* file) {
         // The type is the u16 at header offset 6; the page CRC covers
         // only the payload, so the page itself still opens.
         (*file)[kPageSize + 6] = static_cast<char>(PageType::kSnapshotMeta);
         (*file)[kPageSize + 7] = 0;
       }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    std::string bytes = pristine;
    damage.apply(&bytes);
    {
      std::ofstream file(dir + "/snapshot.db",
                         std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ASSERT_TRUE(file.good());
    }
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto state = store.value()->Recover();
    ASSERT_FALSE(state.ok());
    EXPECT_EQ(state.status().code(), StatusCode::kIoError)
        << state.status().ToString();
  }
}

// Restore sizes each shard's array from the count the stream records,
// so a count is refused before anything is sized from it when the rest
// of the stream cannot hold what it claims. One double past what the
// file holds is refused like 2^40 of them (8 TiB, which no allocation
// could serve: an attempt would throw and fail the test), so no claim
// asks for more than the file.
TEST(EpochStoreTest, ShardLengthPastTheFileIsRefusedBeforeAllocating) {
  const std::int64_t n = 1000;
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.epsilon = 0.5;
  const std::vector<double> leaves = FixedShardStates(options, n)[0];
  // After shard 0's count the stream holds its doubles and the profile
  // flag: room for n doubles, not n + 1.
  for (const std::uint64_t claim :
       {static_cast<std::uint64_t>(n) + 1, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("shard 0 claims " + std::to_string(claim) + " doubles");
    ByteWriter data;
    data.U64(1);
    data.U64(claim);
    for (const double leaf : leaves) data.F64(leaf);
    data.U8(0);
    const std::string dir = FreshDir("es_shard_length");
    WriteSnapshotFile(dir, n, options, data);
    ExpectRefused(dir, "absurd shard length");
  }
}

TEST(EpochStoreTest, ShardCountPastTheFileIsRefusedBeforeAllocating) {
  const std::int64_t n = 1000;
  SnapshotOptions options;
  options.strategy = StrategyKind::kLTilde;
  options.epsilon = 0.5;
  const std::vector<double> leaves = FixedShardStates(options, n)[0];
  // After the shard count the stream holds 8 + 8n + 1 bytes: room for
  // at most n + 1 shards' counts, not n + 2.
  for (const std::uint64_t claim :
       {static_cast<std::uint64_t>(n) + 2, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("the stream claims " + std::to_string(claim) + " shards");
    ByteWriter data;
    data.U64(claim);
    data.U64(leaves.size());
    for (const double leaf : leaves) data.F64(leaf);
    data.U8(0);
    const std::string dir = FreshDir("es_shard_count");
    WriteSnapshotFile(dir, n, options, data);
    ExpectRefused(dir, "absurd shard count");
  }
}

/// FailSync fails every fsync whose `what` (a file's path, or "dir DIR")
/// ends with this.
std::string g_failing_sync;

int FailSync(const std::string& what) {
  return what.size() >= g_failing_sync.size() &&
                 what.compare(what.size() - g_failing_sync.size(),
                              g_failing_sync.size(), g_failing_sync) == 0
             ? EIO
             : 0;
}

// After a failed fsync the kernel may have dropped the dirty pages and
// cleared the error, so a retry could report success for bytes that
// never reached the disk. Whichever of the store's four fsyncs fails
// first, every later write is refused with an IoError naming it, until
// the store is reopened; Recover still reads.
TEST(EpochStoreTest, FailedFsyncStopsEveryWriteUntilReopened) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kHBar;
  options.epsilon = 0.3;
  Rng rng(5);
  auto release = Snapshot::Build(data, options, 1, &rng);
  ASSERT_TRUE(release.ok());

  struct Site {
    const char* name;
    const char* suffix;  // of the failing fsync's `what`
    Status (*fail)(EpochStore& store, const Snapshot& release);
  };
  const Site sites[] = {
      {"WAL append", "/wal.log",
       [](EpochStore& store, const Snapshot&) {
         return store.AppendSpend(0.3, "replan (manual)").status();
       }},
      {"WAL truncate", "/wal.log",
       [](EpochStore& store, const Snapshot&) {
         return store.RollbackTo(0);
       }},
      {"snapshot temp file", "/snapshot.db.tmp",
       [](EpochStore& store, const Snapshot& release) {
         return store.PersistSnapshot(release, nullptr);
       }},
      {"directory", "es_fsync_stop",
       [](EpochStore& store, const Snapshot& release) {
         return store.PersistSnapshot(release, nullptr);
       }},
  };
  for (const Site& site : sites) {
    SCOPED_TRACE(site.name);
    const std::string dir = FreshDir("es_fsync_stop");
    auto opened = EpochStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    EpochStore& store = *opened.value();
    ASSERT_TRUE(store.AppendSpend(0.3, "publish (initial)").ok());
    ASSERT_TRUE(store.AppendEpochSwap(1).ok());
    ASSERT_TRUE(store.PersistSnapshot(*release.value(), nullptr).ok());

    g_failing_sync = site.suffix;
    storage::g_sync_fault_for_test = FailSync;
    const Status failed = site.fail(store, *release.value());
    storage::g_sync_fault_for_test = nullptr;
    ASSERT_FALSE(failed.ok());
    ASSERT_EQ(failed.message().rfind("fsync ", 0), 0u) << failed.ToString();

    // The same fsyncs would succeed now; the store still refuses.
    const std::uint64_t wal_size = store.wal_size();
    const Status refusals[] = {
        store.AppendSpend(0.3, "replan (manual)").status(),
        store.AppendEpochSwap(2),
        store.RollbackTo(0),
        store.PersistSnapshot(*release.value(), nullptr),
    };
    for (const Status& refused : refusals) {
      EXPECT_EQ(refused.code(), StatusCode::kIoError) << refused.ToString();
      EXPECT_NE(refused.message().find(failed.message()), std::string::npos)
          << refused.ToString();
    }
    EXPECT_EQ(store.wal_size(), wal_size);
    auto state = store.Recover();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_NE(state.value().snapshot, nullptr);

    // A reopened store starts clean.
    auto reopened = EpochStore::Open(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened.value()->AppendSpend(0.3, "replan (manual)").ok());
  }
}

TEST(EpochStoreTest, FailedPersistLeavesPreviousReleaseServing) {
  const std::int64_t n = 256;
  Histogram data = TestData(n);
  SnapshotOptions options;
  options.strategy = StrategyKind::kHBar;
  options.epsilon = 0.3;
  Rng rng(5);
  auto first = Snapshot::Build(data, options, 1, &rng);
  auto second = Snapshot::Build(data, options, 2, &rng);
  ASSERT_TRUE(first.ok() && second.ok());

  const std::string dir = FreshDir("es_failed_persist");
  auto store = EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->PersistSnapshot(*first.value(), nullptr).ok());
  // After Open, which unlinks a stale temp file: a directory in the temp
  // file's place makes the next persist fail before it writes a byte.
  ASSERT_TRUE(std::filesystem::create_directory(dir + "/snapshot.db.tmp"));
  const Status failed =
      store.value()->PersistSnapshot(*second.value(), nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();

  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_NE(state.value().snapshot, nullptr);
  EXPECT_EQ(state.value().snapshot->epoch(), 1u);
  for (const Interval& probe : Probes(n)) {
    EXPECT_EQ(state.value().snapshot->RangeCount(probe),
              first.value()->RangeCount(probe));
  }
}

TEST(EpochStoreTest, TornWalTailIsTruncatedOnRecover) {
  const std::string dir = FreshDir("es_torn");
  std::uint64_t clean_size = 0;
  {
    auto store = EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->AppendSpend(0.5, "complete").ok());
    clean_size = store.value()->wal_size();
  }
  {
    std::ofstream file(dir + "/wal.log", std::ios::binary | std::ios::app);
    file.write("DPW", 3);  // a record header that never finished
  }
  auto store = EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state.value().wal_tail_torn);
  ASSERT_EQ(state.value().ledger.size(), 1u);
  EXPECT_EQ(store.value()->wal_size(), clean_size);
  // The truncation repaired the file: a second recovery is clean.
  auto again = store.value()->Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().wal_tail_torn);
}

}  // namespace
}  // namespace dphist::storage
