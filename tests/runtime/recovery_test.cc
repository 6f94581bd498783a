// Crash-recovery contract of the durable serving lifecycle: a restart
// replays the WAL ledger bit-exactly, re-serves the persisted epoch with
// bit-identical answers, and can never spend epsilon the crashed process
// already spent (or mint budget a crash "forgot").

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "runtime/epoch_manager.h"
#include "service/query_service.h"
#include "storage/epoch_store.h"
#include "storage/fd_io.h"

namespace dphist::runtime {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(31);
  return Histogram::FromCounts(ZipfCounts(n, 1.25, 5 * n, &rng));
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

EpochManagerOptions DurableOptions(storage::EpochStore* store,
                                   double epsilon, double budget) {
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  options.base.epsilon = epsilon;
  options.base.shards = 2;
  options.epsilon_budget = budget;
  options.async = false;
  options.store = store;
  return options;
}

std::vector<Interval> Probes(std::int64_t n) {
  return {Interval(0, n - 1), Interval(0, 0), Interval(n / 3, n / 2),
          Interval(5, n - 7)};
}

TEST(RecoveryTest, RestartReplaysLedgerAndServesBitIdenticalAnswers) {
  const std::int64_t n = 80;
  Histogram data = TestData(n);
  const std::string dir = FreshDir("rec_restart");

  double spent_before = 0.0;
  std::uint64_t epoch_before = 0;
  std::vector<double> answers_before;
  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 2.0), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
    auto replanned = manager.ReplanNow();
    ASSERT_TRUE(replanned.status.ok()) << replanned.status.ToString();
    spent_before = manager.stats().epsilon_spent;
    epoch_before = service.current_epoch();
    for (const Interval& probe : Probes(n)) {
      double answer = 0.0;
      EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
      answers_before.push_back(answer);
    }
  }  // the process "dies": everything in memory is gone

  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  QueryService service;
  EpochManager manager(&service, data,
                       DurableOptions(store.value().get(), 0.3, 2.0), 42);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().republished);
  EXPECT_EQ(recovered.value().trigger, ReplanTrigger::kRecover);
  EXPECT_EQ(recovered.value().epoch, epoch_before);
  EXPECT_EQ(service.current_epoch(), epoch_before);
  // EXPECT_EQ on doubles on purpose: the replayed ledger and the
  // restored answers must be bit-identical, not merely close.
  EXPECT_EQ(manager.stats().epsilon_spent, spent_before);
  EXPECT_EQ(manager.stats().republishes, 1u);
  std::size_t i = 0;
  for (const Interval& probe : Probes(n)) {
    double answer = 0.0;
    EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
    EXPECT_EQ(answer, answers_before[i++])
        << "probe [" << probe.lo() << ", " << probe.hi() << "]";
  }
}

TEST(RecoveryTest, BudgetIsNeverDoubleSpendableAcrossRestart) {
  const std::int64_t n = 48;
  Histogram data = TestData(n);
  const std::string dir = FreshDir("rec_budget");

  // Budget fits the initial publish but not a second release.
  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 0.5), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
    auto refused = manager.ReplanNow();
    ASSERT_FALSE(refused.status.ok());
    EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
  }

  // The restart must inherit the exhausted state — recovery must not
  // reset the meter and let the server republish from scratch.
  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  QueryService service;
  EpochManager manager(&service, data,
                       DurableOptions(store.value().get(), 0.3, 0.5), 42);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().republished);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
  auto refused = manager.ReplanNow();
  ASSERT_FALSE(refused.status.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
}

TEST(RecoveryTest, CrashMidReplanStillCountsTheEpsilon) {
  const std::int64_t n = 48;
  Histogram data = TestData(n);
  const std::string dir = FreshDir("rec_midreplan");

  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 2.0), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
    // Simulate SIGKILL between the replan's WAL append and its commit:
    // the spend record is durable, the swap and snapshot never happened.
    ASSERT_TRUE(store.value()->AppendSpend(0.3, "replan (manual)").ok());
  }

  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  QueryService service;
  EpochManager manager(&service, data,
                       DurableOptions(store.value().get(), 0.3, 2.0), 42);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  // The interrupted replan's release was never served, but its epsilon
  // was charged before the crash and must stay charged (conservative:
  // a crash can lose budget, never mint it).
  EXPECT_EQ(manager.stats().epsilon_spent, 0.3 + 0.3);
  // The served release is still the initial epoch — the half-born one
  // never becomes visible.
  EXPECT_TRUE(recovered.value().republished);
  EXPECT_EQ(recovered.value().epoch, 1u);
}

TEST(RecoveryTest, FailedDirectoryFsyncAfterRenameKeepsTheSpend) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  const std::string dir = FreshDir("rec_dir_fsync");

  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 2.0), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
    std::vector<double> answers_before;
    for (const Interval& probe : Probes(n)) {
      double answer = 0.0;
      EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
      answers_before.push_back(answer);
    }
    // The replan's snapshot.db rename succeeds; the directory fsync
    // that would make it durable fails.
    storage::g_sync_fault_for_test = [](const std::string& what) {
      return what.rfind("dir ", 0) == 0 ? EIO : 0;
    };
    const ReplanOutcome failed = manager.ReplanNow();
    storage::g_sync_fault_for_test = nullptr;
    ASSERT_FALSE(failed.status.ok());
    EXPECT_EQ(failed.status.code(), StatusCode::kIoError)
        << failed.status.ToString();
    EXPECT_FALSE(failed.republished);
    // Not committed: the old epoch keeps serving the same answers...
    EXPECT_EQ(service.current_epoch(), 1u);
    std::size_t i = 0;
    for (const Interval& probe : Probes(n)) {
      double answer = 0.0;
      EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
      EXPECT_EQ(answer, answers_before[i++]);
    }
    // ...yet the release may be served after a restart, so it stays paid.
    EXPECT_EQ(manager.stats().epsilon_spent, 0.3 + 0.3);
  }

  // Whichever epoch snapshot.db holds after the crash, the ledger pays
  // for it: the failed publish's spend was not truncated away.
  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto state = store.value()->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state.value().ledger.size(), 2u);
  EXPECT_EQ(state.value().ledger[1].epsilon, 0.3);
  ASSERT_NE(state.value().snapshot, nullptr);
  EXPECT_LE(state.value().snapshot->epoch(), state.value().ledger.size());
}

TEST(RecoveryTest, FailedWalFsyncRefusesPublishesUntilReopened) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  const std::string dir = FreshDir("rec_wal_fsync");

  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 2.0), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
    std::vector<double> answers_before;
    for (const Interval& probe : Probes(n)) {
      double answer = 0.0;
      EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
      answers_before.push_back(answer);
    }
    // The replan's spend record is written, but its fsync fails.
    storage::g_sync_fault_for_test = [](const std::string& what) {
      const std::string wal = "/wal.log";
      return what.size() >= wal.size() &&
                     what.compare(what.size() - wal.size(), wal.size(),
                                  wal) == 0
                 ? EIO
                 : 0;
    };
    const ReplanOutcome failed = manager.ReplanNow();
    storage::g_sync_fault_for_test = nullptr;
    ASSERT_FALSE(failed.status.ok());
    EXPECT_EQ(failed.status.code(), StatusCode::kIoError)
        << failed.status.ToString();
    EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
    const std::uint64_t wal_size = store.value()->wal_size();

    // The kernel may have dropped the record's pages and cleared the
    // error, so a retry could be told its bytes are on disk when they
    // are not. The next replan is refused before it spends, naming the
    // first failure, and the last committed release keeps serving.
    const ReplanOutcome refused = manager.ReplanNow();
    ASSERT_FALSE(refused.status.ok());
    EXPECT_EQ(refused.status.code(), StatusCode::kIoError)
        << refused.status.ToString();
    EXPECT_NE(refused.status.message().find("fsync " + dir + "/wal.log"),
              std::string::npos)
        << refused.status.ToString();
    EXPECT_FALSE(refused.republished);
    EXPECT_EQ(store.value()->wal_size(), wal_size);
    EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
    EXPECT_EQ(service.current_epoch(), 1u);
    std::size_t i = 0;
    for (const Interval& probe : Probes(n)) {
      double answer = 0.0;
      EXPECT_TRUE(service.TryQueryBatch(&probe, 1, &answer).ok());
      EXPECT_EQ(answer, answers_before[i++]);
    }
  }

  // A restart reopens the store: it re-serves the committed release and
  // publishes again.
  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  QueryService service;
  EpochManager manager(&service, data,
                       DurableOptions(store.value().get(), 0.3, 2.0), 42);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().republished);
  EXPECT_EQ(recovered.value().epoch, 1u);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.3);
  const ReplanOutcome replanned = manager.ReplanNow();
  ASSERT_TRUE(replanned.status.ok()) << replanned.status.ToString();
  EXPECT_TRUE(replanned.republished);
  EXPECT_EQ(service.current_epoch(), 2u);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.3 + 0.3);
}

TEST(RecoveryTest, RecoverWithoutStoreIsRefusedNotFatal) {
  Histogram data = TestData(16);
  QueryService service;
  EpochManagerOptions options;
  options.base.epsilon = 0.5;
  options.async = false;
  EpochManager manager(&service, data, options, 42);
  auto recovered = manager.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, FreshDirectoryRecoversNothingThenPublishes) {
  const std::int64_t n = 32;
  Histogram data = TestData(n);
  auto store = storage::EpochStore::Open(FreshDir("rec_fresh"));
  ASSERT_TRUE(store.ok());
  QueryService service;
  EpochManager manager(&service, data,
                       DurableOptions(store.value().get(), 0.4, 1.0), 42);
  auto recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().republished);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.0);
  // Nothing restored: the normal first publish proceeds, and is durable.
  ASSERT_TRUE(manager.PublishInitial().ok());
  EXPECT_EQ(service.current_epoch(), 1u);
  EXPECT_EQ(manager.stats().epsilon_spent, 0.4);
}

TEST(RecoveryTest, RecoveredDomainMismatchIsIoError) {
  const std::string dir = FreshDir("rec_domain");
  {
    auto store = storage::EpochStore::Open(dir);
    ASSERT_TRUE(store.ok());
    Histogram data = TestData(64);
    QueryService service;
    EpochManager manager(&service, data,
                         DurableOptions(store.value().get(), 0.3, 2.0), 42);
    ASSERT_TRUE(manager.PublishInitial().ok());
  }
  // Restart against DIFFERENT data: serving the old release as if it
  // described this histogram would be silently wrong.
  auto store = storage::EpochStore::Open(dir);
  ASSERT_TRUE(store.ok());
  Histogram other = TestData(32);
  QueryService service;
  EpochManager manager(&service, other,
                       DurableOptions(store.value().get(), 0.3, 2.0), 42);
  auto recovered = manager.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dphist::runtime
