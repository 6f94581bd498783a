#include "runtime/epoch_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "planner/planner.h"

namespace dphist::runtime {
namespace {

Histogram TestData(std::int64_t n) {
  Rng rng(23);
  return Histogram::FromCounts(ZipfCounts(n, 1.3, 6 * n, &rng));
}

TEST(EpochManagerTest, InitialPublishPlansWhenAuto) {
  // kAuto is resolved here and only here. The planner's picture of the
  // traffic: an explicit profile beats observed traffic, which beats the
  // neutral geometric sweep.
  enum class Observed { kNothing, kUnitCounts, kFullRanges };
  struct Row {
    const char* name;
    std::int64_t n;
    bool unit_profile;  // PublishInitial(&units) rather than (nullptr)
    Observed observed;  // traffic answered before the publish
    StrategyKind expected;  // kAuto: any concrete strategy
  };
  const Row rows[] = {
      {"explicit profile", 64, true, Observed::kNothing,
       StrategyKind::kLTilde},
      {"observed traffic", 64, false, Observed::kUnitCounts,
       StrategyKind::kLTilde},
      {"neutral prior", 48, false, Observed::kNothing, StrategyKind::kAuto},
      {"explicit profile over observation", 64, true, Observed::kFullRanges,
       StrategyKind::kLTilde},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Histogram data = TestData(row.n);
    QueryService service;
    std::uint64_t epoch = 1;
    if (row.observed != Observed::kNothing) {
      // Traffic is observed only once a release answers it.
      ASSERT_TRUE(service.Publish(data, SnapshotOptions(), 1).ok());
      epoch = 2;
      double answer = 0.0;
      for (std::int64_t i = 0; i < row.n; ++i) {
        const Interval q = row.observed == Observed::kUnitCounts
                               ? Interval(i, i)
                               : Interval(0, row.n - 1);
        EXPECT_TRUE(service.TryQueryBatch(&q, 1, &answer).ok());
      }
    }
    EpochManagerOptions options;
    options.base.strategy = StrategyKind::kAuto;
    options.async = false;
    EpochManager manager(&service, data, options, 7);

    planner::WorkloadProfile units(row.n);
    units.AddLength(1, 50.0);
    auto outcome = manager.PublishInitial(row.unit_profile ? &units : nullptr);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome.value().republished);
    EXPECT_TRUE(outcome.value().planned);
    EXPECT_EQ(outcome.value().epoch, epoch);
    EXPECT_EQ(service.current_epoch(), epoch);
    const StrategyKind chosen = outcome.value().snapshot->strategy();
    if (row.expected == StrategyKind::kAuto) {
      EXPECT_NE(chosen, StrategyKind::kAuto);
    } else {
      EXPECT_EQ(chosen, row.expected);
    }
    double answer = 0.0;
    const Interval full(0, row.n - 1);
    EXPECT_EQ(service.TryQueryBatch(&full, 1, &answer).value(), epoch);
    EXPECT_DOUBLE_EQ(manager.stats().epsilon_spent, options.base.epsilon);
  }
}

TEST(EpochManagerTest, ManualReplanMatchesChoosePlanOnExportedProfile) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;  // deliberately wrong for units
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());
  EXPECT_EQ(service.snapshot()->strategy(), StrategyKind::kHBar);

  // Unit-count traffic, then a manual replan: the published strategy
  // must equal ChoosePlan on the very profile the service exports.
  std::vector<double> answer(1);
  for (std::int64_t i = 0; i < 64; ++i) {
    Interval q(i % n, i % n);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  auto expected = planner::ChoosePlan(service.ObservedWorkload(n),
                                      options.base, options.planner);
  ASSERT_TRUE(expected.ok());

  auto outcome = manager.ReplanNow();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().republished);
  EXPECT_EQ(outcome.value().epoch, 2u);
  EXPECT_EQ(outcome.value().plan.options.strategy,
            expected.value().options.strategy);
  EXPECT_EQ(outcome.value().plan.options.shards,
            expected.value().options.shards);
  EXPECT_EQ(service.snapshot()->strategy(),
            expected.value().options.strategy);
  EXPECT_EQ(expected.value().options.strategy, StrategyKind::kLTilde);
  EXPECT_EQ(manager.stats().manual, 1u);
  EXPECT_DOUBLE_EQ(manager.stats().epsilon_spent,
                   2 * options.base.epsilon);
}

TEST(EpochManagerTest, EveryNTriggerFiresOnPoll) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.replan_every = 16;
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  std::vector<double> answer(1);
  for (std::int64_t i = 0; i < 15; ++i) {
    Interval q(i, i);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  EXPECT_FALSE(manager.Poll());  // 15 < 16: nothing fires
  Interval q(0, 0);
  EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  EXPECT_TRUE(manager.Poll());
  EXPECT_EQ(manager.stats().every, 1u);
  EXPECT_EQ(service.current_epoch(), 2u);
  // The trigger re-anchors: the very next poll is quiet again.
  EXPECT_FALSE(manager.Poll());
}

TEST(EpochManagerTest, DriftTriggerRepublishesOnlyOnMeasuredDrift) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHBar;
  // Single-strategy candidate set makes the drift geometry exact: the
  // only question is whether the observed traffic wants different
  // sharding than the current release.
  options.planner.strategies = {StrategyKind::kHBar};
  options.drift_ratio = 0.25;
  options.drift_check_every = 8;
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());
  ASSERT_EQ(service.snapshot()->shard_count(), 1);

  // Full-domain traffic: unsharded H-bar is exactly what the planner
  // would choose, so the check keeps the release and spends nothing.
  std::vector<double> answer(1);
  for (int i = 0; i < 8; ++i) {
    Interval q(0, n - 1);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  EXPECT_TRUE(manager.Poll());  // a drift check ran...
  EXPECT_EQ(manager.stats().drift_checks, 1u);
  EXPECT_EQ(manager.stats().drift, 0u);  // ...but kept the release
  EXPECT_EQ(service.current_epoch(), 1u);
  EXPECT_DOUBLE_EQ(manager.stats().epsilon_spent, options.base.epsilon);

  // Unit-count traffic wants aggressive sharding; the ratio blows past
  // 1.25 and the manager republishes.
  for (std::int64_t i = 0; i < 64; ++i) {
    Interval q(i % n, i % n);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  EXPECT_TRUE(manager.Poll());
  EXPECT_EQ(manager.stats().drift, 1u);
  EXPECT_EQ(service.current_epoch(), 2u);
  EXPECT_GT(service.snapshot()->shard_count(), 1);
}

TEST(EpochManagerTest, BudgetRefusalKeepsServingTheOldEpoch) {
  Histogram data = TestData(64);
  QueryService service;
  EpochManagerOptions options;
  options.base.epsilon = 1.0;
  options.epsilon_budget = 1.5;  // room for one publish, not two
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  auto refused = manager.ReplanNow();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.stats().budget_refusals, 1u);
  EXPECT_EQ(manager.stats().republishes, 1u);
  EXPECT_EQ(service.current_epoch(), 1u);  // old release still serving
  double out = 0.0;
  const Interval probe(0, 5);
  EXPECT_EQ(service.TryQueryBatch(&probe, 1, &out).value(), 1u);
}

// Subscriber queues are independent: every broadcast lands in every
// queue exactly once, a manual replan skips its reporter (the caller
// prints it directly), and a late subscriber sees nothing from before
// it subscribed.
TEST(EpochManagerTest, SubscriberQueuesAreIndependent) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.replan_every = 4;
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  const EpochManager::SubscriberId a = manager.Subscribe();
  const EpochManager::SubscriberId b = manager.Subscribe();

  std::vector<double> answer(1);
  for (std::int64_t i = 0; i < 4; ++i) {
    Interval q(i, i);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  ASSERT_TRUE(manager.Poll());  // every-N republish -> epoch 2

  // Both subscribers get the announcement; draining one queue does not
  // touch the other, and a second take is empty.
  auto taken_a = manager.TakeCompleted(a);
  ASSERT_EQ(taken_a.size(), 1u);
  EXPECT_EQ(taken_a[0].epoch, 2u);
  EXPECT_EQ(taken_a[0].trigger, ReplanTrigger::kEveryN);
  EXPECT_TRUE(manager.TakeCompleted(a).empty());
  auto taken_b = manager.TakeCompleted(b);
  ASSERT_EQ(taken_b.size(), 1u);
  EXPECT_EQ(taken_b[0].epoch, 2u);

  // A manual replan reported by session `a` is skipped in a's queue and
  // still announced to b.
  auto manual = manager.ReplanNow(a);
  ASSERT_TRUE(manual.ok()) << manual.status().ToString();
  EXPECT_EQ(manual.value().epoch, 3u);
  EXPECT_TRUE(manager.TakeCompleted(a).empty());
  taken_b = manager.TakeCompleted(b);
  ASSERT_EQ(taken_b.size(), 1u);
  EXPECT_EQ(taken_b[0].epoch, 3u);
  EXPECT_EQ(taken_b[0].trigger, ReplanTrigger::kManual);

  // A subscriber that joins now has missed everything so far.
  const EpochManager::SubscriberId late = manager.Subscribe();
  EXPECT_TRUE(manager.TakeCompleted(late).empty());

  // Unsubscribed queues stop accumulating (and unknown ids are inert).
  manager.Unsubscribe(b);
  ASSERT_TRUE(manager.ReplanNow().ok());
  EXPECT_TRUE(manager.TakeCompleted(b).empty());
  auto taken_late = manager.TakeCompleted(late);
  ASSERT_EQ(taken_late.size(), 1u);
  EXPECT_EQ(taken_late[0].epoch, 4u);
  manager.Unsubscribe(a);
  manager.Unsubscribe(late);
}

// Regression test for the PublishInitial epsilon-budget TOCTOU: an
// async replan request is already pending when a second PublishInitial
// arrives, and the budget only has room for one of them. PublishInitial
// must serialize behind the replan (the busy token) and come back with
// a graceful FailedPrecondition — before the fix it checked CanSpend,
// published unlocked, and then CHECK-aborted when the replan had
// drained the budget in between. Runs under the TSan CI job.
TEST(EpochManagerTest, PublishInitialBudgetRaceIsGraceful) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.base.epsilon = 1.0;
  options.epsilon_budget = 2.0;  // room for the initial publish + ONE more
  options.replan_every = 1;
  options.async = true;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());

  // Queue an async replan (it will spend the last unit of budget)...
  std::vector<double> answer(1);
  Interval q(0, 0);
  EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  ASSERT_TRUE(manager.Poll());

  // ...and race a second initial publish against it. It must wait for
  // the in-flight replan, observe the exhausted budget, and refuse
  // gracefully instead of aborting the server.
  auto refused = manager.PublishInitial();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  manager.Drain();
  const EpochManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.republishes, 2u);  // initial + the every-N replan
  EXPECT_EQ(stats.budget_refusals, 1u);
  EXPECT_DOUBLE_EQ(stats.epsilon_spent, 2.0);
  EXPECT_EQ(service.current_epoch(), 2u);  // still serving
  double out = 0.0;
  const Interval probe(0, 5);
  EXPECT_EQ(service.TryQueryBatch(&probe, 1, &out).value(), 2u);
}

// The multi-session satellite: two threaded sessions share one manager,
// each streaming traffic, polling its own subscription, and firing one
// manual replan. Every session must see every republished epoch exactly
// once — its own manual replans via the direct return value, everything
// else via its queue — with no lost or duplicated announcements. Runs
// under the TSan CI job.
TEST(EpochManagerTest, TwoThreadedSessionsEachSeeEveryRepublishOnce) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.base.epsilon = 0.5;
  options.replan_every = 60;
  options.async = true;
  EpochManager manager(&service, data, options, 7);
  EpochSubscription subs[2] = {EpochSubscription(manager),
                               EpochSubscription(manager)};
  ASSERT_TRUE(manager.PublishInitial().ok());

  struct SessionLog {
    std::vector<std::uint64_t> queued_epochs;  // from TakeCompleted
    std::uint64_t manual_epoch = 0;            // from ReplanNow directly
  };
  SessionLog logs[2];

  std::vector<std::thread> sessions;
  for (int t = 0; t < 2; ++t) {
    sessions.emplace_back([&, t] {
      const EpochManager::SubscriberId id = subs[t].id();
      Rng rng(200 + static_cast<std::uint64_t>(t));
      std::vector<Interval> batch(4, Interval(0, 0));
      std::vector<double> answers(4);
      for (int iter = 0; iter < 40; ++iter) {
        for (auto& range : batch) {
          const std::int64_t lo = rng.NextInt(0, n - 2);
          range = Interval(lo, rng.NextInt(lo, n - 1));
        }
        EXPECT_TRUE(
            service.TryQueryBatch(batch.data(), batch.size(), answers.data())
                .ok());
        manager.Poll();
        for (const ReplanOutcome& outcome : manager.TakeCompleted(id)) {
          ASSERT_TRUE(outcome.status.ok());
          ASSERT_TRUE(outcome.republished);
          logs[t].queued_epochs.push_back(outcome.epoch);
        }
        if (iter == 10) {
          auto manual = manager.ReplanNow(id);
          ASSERT_TRUE(manual.ok()) << manual.status().ToString();
          logs[t].manual_epoch = manual.value().epoch;
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  manager.Drain();
  for (int t = 0; t < 2; ++t) {
    for (const ReplanOutcome& outcome :
         manager.TakeCompleted(subs[t].id())) {
      ASSERT_TRUE(outcome.status.ok());
      logs[t].queued_epochs.push_back(outcome.epoch);
    }
  }

  const EpochManager::Stats stats = manager.stats();
  ASSERT_EQ(stats.manual, 2u);
  ASSERT_GE(stats.every, 1u);  // 320 queries over replan_every=60
  EXPECT_EQ(stats.announcements_dropped, 0u);
  // Republished epochs are 2..K+1 (the initial publish made epoch 1 and
  // is returned directly, never broadcast).
  const std::uint64_t last_epoch = stats.republishes;  // == 1 + replans
  for (int t = 0; t < 2; ++t) {
    // No session sees its own manual replan through its queue...
    for (std::uint64_t epoch : logs[t].queued_epochs) {
      EXPECT_NE(epoch, logs[t].manual_epoch)
          << "session " << t << " was echoed its own manual replan";
    }
    // ...and (queue + direct manual) covers every republished epoch
    // exactly once: nothing lost, nothing duplicated.
    std::vector<std::uint64_t> seen = logs[t].queued_epochs;
    seen.push_back(logs[t].manual_epoch);
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "session " << t << " got a duplicated announcement";
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(last_epoch - 1));
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i + 2));
    }
  }
}

// The satellite's threaded lifecycle test: reader threads stream batches
// while the manager's every-N trigger republishes asynchronously. Every
// recorded batch must be answerable bit-for-bit from the snapshot of the
// epoch it reported — one epoch, one release, even mid-swap — and the
// post-replan strategy is whatever the plan that published it chose.
// Runs under the TSan CI job (EpochManagerTest.* is in its filter).
TEST(EpochManagerTest, ReplanLifecycleUnderConcurrentReaders) {
  const std::int64_t n = 128;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.base.epsilon = 0.5;
  options.replan_every = 150;
  options.async = true;
  EpochManager manager(&service, data, options, 7);
  // Subscribed before any replan can fire, so every completed outcome
  // is delivered here.
  EpochSubscription subscription(manager);
  auto initial = manager.PublishInitial();
  ASSERT_TRUE(initial.ok());

  struct Sample {
    std::uint64_t epoch;
    std::vector<Interval> ranges;
    std::vector<double> answers;
  };
  constexpr int kReaders = 3;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kWantedReplans = 3;
  // Safety valves so a broken trigger cannot hang the suite; generous
  // enough (a replan at n=128 takes milliseconds) that the wanted
  // replans always arrive first, even on a loaded single-core host.
  constexpr int kMaxIterations = 200000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> done{false};

  // Readers stream batches until the controller has seen enough
  // republishes — on any host speed, traffic stays in flight across
  // every swap under test.
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      std::vector<Interval> ranges(kBatch, Interval(0, 0));
      std::vector<double> answers(kBatch);
      for (int iter = 0;
           iter < kMaxIterations && !done.load(std::memory_order_relaxed);
           ++iter) {
        for (std::size_t j = 0; j < kBatch; ++j) {
          const std::int64_t lo = rng.NextInt(0, n - 3);
          ranges[j] = Interval(lo, rng.NextInt(lo + 1, n - 1));
        }
        const std::uint64_t epoch =
            service.TryQueryBatch(ranges.data(), kBatch, answers.data())
                .value();
        if (iter % 5 == 0 &&
            samples[static_cast<std::size_t>(t)].size() < 100) {
          samples[static_cast<std::size_t>(t)].push_back(
              Sample{epoch, ranges, answers});
        }
        // Readers poll too — in a real server any thread may notice the
        // trigger; the manager must keep that race benign.
        manager.Poll();
        // Stop generating triggers once the wanted replans have fired.
        // On a starved single-core host the controller may not observe
        // the count for thousands of iterations; unbounded overshoot
        // would wrap the bounded subscriber queue and drop the early
        // outcomes the verification below replays.
        if (manager.stats().every >= kWantedReplans) break;
      }
    });
  }
  std::thread controller([&] {
    while (std::chrono::steady_clock::now() < deadline) {
      manager.Poll();
      if (manager.stats().every >= kWantedReplans) break;
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_relaxed);
  });
  controller.join();
  for (std::thread& reader : readers) reader.join();
  manager.Drain();

  // Gather every published snapshot by epoch.
  std::map<std::uint64_t, std::shared_ptr<const Snapshot>> snapshots;
  snapshots[initial.value().epoch] = initial.value().snapshot;
  std::uint64_t republishes = 0;
  for (const ReplanOutcome& outcome :
       manager.TakeCompleted(subscription.id())) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    if (!outcome.republished) continue;
    snapshots[outcome.epoch] = outcome.snapshot;
    ++republishes;
    // publish-from-plan really published the planned configuration.
    ASSERT_NE(outcome.snapshot, nullptr);
    EXPECT_EQ(outcome.snapshot->strategy(), outcome.plan.options.strategy);
    EXPECT_EQ(outcome.snapshot->shard_count(),
              std::min(outcome.plan.options.shards, n));
  }
  EXPECT_GE(republishes, 2u);
  EXPECT_EQ(manager.stats().every, republishes);

  // Single-epoch batch consistency: every sampled batch reproduces
  // bit-for-bit from the snapshot of the epoch it reported.
  std::size_t verified = 0;
  for (const auto& reader_samples : samples) {
    for (const Sample& sample : reader_samples) {
      auto it = snapshots.find(sample.epoch);
      ASSERT_NE(it, snapshots.end())
          << "batch reported unpublished epoch " << sample.epoch;
      for (std::size_t j = 0; j < sample.ranges.size(); ++j) {
        ASSERT_EQ(sample.answers[j],
                  it->second->RangeCount(sample.ranges[j]))
            << "epoch " << sample.epoch << " range "
            << sample.ranges[j].ToString();
        ++verified;
      }
    }
  }
  EXPECT_GE(verified, kBatch);  // at least one full batch per epoch mix
}

}  // namespace
}  // namespace dphist::runtime
