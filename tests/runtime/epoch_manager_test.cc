#include "runtime/epoch_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "planner/planner.h"
#include "runtime/serving_loop.h"

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
    const StrategyKind chosen = service.snapshot()->strategy();
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

  ReplanOutcome outcome = manager.ReplanNow();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.republished);
  EXPECT_EQ(outcome.epoch, 2u);
  EXPECT_EQ(outcome.plan.options.strategy, expected.value().options.strategy);
  EXPECT_EQ(outcome.plan.options.shards, expected.value().options.shards);
  EXPECT_EQ(service.snapshot()->strategy(),
            expected.value().options.strategy);
  EXPECT_EQ(expected.value().options.strategy, StrategyKind::kLTilde);
  EXPECT_EQ(manager.stats().replans, 1u);
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
  EXPECT_EQ(manager.stats().replans, 1u);
  EXPECT_EQ(service.current_epoch(), 2u);
  // The trigger re-anchors: the very next poll is quiet again.
  EXPECT_FALSE(manager.Poll());
}

TEST(EpochManagerTest, PollWithoutTriggersNeverReplans) {
  // serve's default sets neither trigger: Poll, which every session line
  // and QUERY frame calls, must stay quiet however much traffic arrives,
  // in both sync and async modes.
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  for (const bool async : {false, true}) {
    QueryService service;
    EpochManagerOptions options;
    options.base.strategy = StrategyKind::kHTilde;
    options.async = async;
    EpochManager manager(&service, data, options, 7);
    ASSERT_TRUE(manager.PublishInitial().ok());
    std::vector<double> answers(n);
    std::vector<Interval> ranges;
    for (std::int64_t i = 0; i < n; ++i) ranges.emplace_back(0, i);
    for (int round = 0; round < 64; ++round) {
      ASSERT_TRUE(
          service.TryQueryBatch(ranges.data(), ranges.size(), answers.data())
              .ok());
      EXPECT_FALSE(manager.Poll());
    }
    manager.Drain();
    EXPECT_EQ(service.observed_query_count(), 64u * n);
    EXPECT_EQ(service.current_epoch(), 1u);
    EXPECT_EQ(manager.stats().republishes, 1u);
    EXPECT_EQ(manager.stats().drift_checks, 0u);
  }
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
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());
  ASSERT_EQ(service.snapshot()->shard_count(), 1);

  // Full-domain traffic: unsharded H-bar is exactly what the planner
  // would choose, so the check keeps the release and spends nothing.
  // The check waits for kDriftCheckEvery queries.
  const std::size_t cadence = EpochManager::kDriftCheckEvery;
  std::vector<Interval> full(cadence - 1, Interval(0, n - 1));
  std::vector<double> answers(8 * cadence);
  ASSERT_TRUE(
      service.TryQueryBatch(full.data(), full.size(), answers.data()).ok());
  EXPECT_FALSE(manager.Poll());
  ASSERT_TRUE(service.TryQueryBatch(full.data(), 1, answers.data()).ok());
  EXPECT_TRUE(manager.Poll());  // a drift check ran...
  EXPECT_EQ(manager.stats().drift_checks, 1u);
  EXPECT_EQ(manager.stats().replans, 0u);  // ...but kept the release
  EXPECT_EQ(service.current_epoch(), 1u);
  EXPECT_DOUBLE_EQ(manager.stats().epsilon_spent, options.base.epsilon);

  // Unit-count traffic wants aggressive sharding; the ratio blows past
  // 1.25 and the manager republishes.
  std::vector<Interval> units;
  for (std::size_t i = 0; i < 8 * cadence; ++i) {
    const auto at = static_cast<std::int64_t>(i) % n;
    units.emplace_back(at, at);
  }
  ASSERT_TRUE(
      service.TryQueryBatch(units.data(), units.size(), answers.data()).ok());
  EXPECT_TRUE(manager.Poll());
  EXPECT_EQ(manager.stats().replans, 1u);
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

  ReplanOutcome refused = manager.ReplanNow();
  EXPECT_FALSE(refused.status.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(refused.republished);
  EXPECT_EQ(manager.stats().failures, 0u);  // a refusal is no failure
  EXPECT_EQ(manager.stats().republishes, 1u);
  EXPECT_EQ(service.current_epoch(), 1u);  // old release still serving
  double out = 0.0;
  const Interval probe(0, 5);
  EXPECT_EQ(service.TryQueryBatch(&probe, 1, &out).value(), 1u);
}

// One outcome log: every replan outcome, triggered or manual, is logged
// once under the next sequence number; readers at different cursors
// read it independently, a reader that starts at last_sequence() sees
// nothing from before, and the log keeps only the last kLogCapacity.
TEST(EpochManagerTest, OutcomeLogIsReadByCursor) {
  const std::int64_t n = 64;
  Histogram data = TestData(n);
  QueryService service;
  EpochManagerOptions options;
  options.base.strategy = StrategyKind::kHTilde;
  options.replan_every = 4;
  options.async = false;
  EpochManager manager(&service, data, options, 7);
  ASSERT_TRUE(manager.PublishInitial().ok());
  EXPECT_EQ(manager.last_sequence(), 0u);  // the initial publish is not logged

  std::vector<double> answer(1);
  for (std::int64_t i = 0; i < 4; ++i) {
    Interval q(i, i);
    EXPECT_TRUE(service.TryQueryBatch(&q, 1, answer.data()).ok());
  }
  ASSERT_TRUE(manager.Poll());  // every-N republish -> epoch 2
  ASSERT_EQ(manager.last_sequence(), 1u);
  const ReplanOutcome manual = manager.ReplanNow();
  ASSERT_TRUE(manual.status.ok()) << manual.status.ToString();
  EXPECT_EQ(manual.epoch, 3u);
  EXPECT_EQ(manual.sequence, 2u);

  // Reading at one cursor leaves the log whole for every other cursor.
  std::vector<ReplanOutcome> all = manager.OutcomesAfter(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].sequence, 1u);
  EXPECT_EQ(all[0].epoch, 2u);
  EXPECT_EQ(all[0].trigger, ReplanTrigger::kEveryN);
  EXPECT_EQ(all[1].sequence, 2u);
  EXPECT_EQ(all[1].trigger, ReplanTrigger::kManual);
  std::vector<ReplanOutcome> newer = manager.OutcomesAfter(1);
  ASSERT_EQ(newer.size(), 1u);
  EXPECT_EQ(newer[0].epoch, 3u);
  EXPECT_EQ(manager.OutcomesAfter(0).size(), 2u);
  EXPECT_TRUE(manager.OutcomesAfter(manager.last_sequence()).empty());

  // The log keeps the newest kLogCapacity outcomes, oldest first.
  while (manager.last_sequence() < EpochManager::kLogCapacity + 3) {
    ASSERT_TRUE(manager.ReplanNow().status.ok());
  }
  all = manager.OutcomesAfter(0);
  ASSERT_EQ(all.size(), EpochManager::kLogCapacity);
  EXPECT_EQ(all.front().sequence, 4u);
  EXPECT_EQ(all.back().sequence, manager.last_sequence());
  EXPECT_EQ(all.back().epoch, service.current_epoch());
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
  EXPECT_EQ(stats.failures, 0u);     // the refusal is no failure
  EXPECT_DOUBLE_EQ(stats.epsilon_spent, 2.0);
  EXPECT_EQ(service.current_epoch(), 2u);  // still serving
  double out = 0.0;
  const Interval probe(0, 5);
  EXPECT_EQ(service.TryQueryBatch(&probe, 1, &out).value(), 2u);
}

// Two threaded sessions share one manager, each streaming traffic
// through its own SessionExecutor, reading the outcome log by its own
// cursor, and firing one manual replan. Every session must see every
// republished epoch exactly once — its own manual replan via the direct
// return value, everything else via the log — with no lost or
// duplicated announcements. Runs under the TSan CI job.
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
  ASSERT_TRUE(manager.PublishInitial().ok());

  struct SessionLog {
    std::string text;  // the executors write nothing on this path
    std::vector<ReplanOutcome> taken;  // from the log
    std::uint64_t manual_epoch = 0;    // from ManualReplan directly
  };
  SessionLog logs[2];
  std::vector<std::unique_ptr<SessionWriter>> writers;
  std::vector<std::unique_ptr<SessionExecutor>> executors;
  for (SessionLog& log : logs) {
    writers.push_back(std::make_unique<SessionWriter>(&log.text));
    executors.push_back(
        std::make_unique<SessionExecutor>(*writers.back(), service, manager));
  }

  std::vector<std::thread> sessions;
  for (int t = 0; t < 2; ++t) {
    sessions.emplace_back([&, t] {
      SessionExecutor& executor = *executors[static_cast<std::size_t>(t)];
      Rng rng(200 + static_cast<std::uint64_t>(t));
      std::vector<Interval> batch(4, Interval(0, 0));
      std::vector<double> answers;
      auto take = [&](std::vector<ReplanOutcome> outcomes) {
        for (ReplanOutcome& outcome : outcomes) {
          logs[t].taken.push_back(std::move(outcome));
        }
      };
      for (int iter = 0; iter < 40; ++iter) {
        for (auto& range : batch) {
          const std::int64_t lo = rng.NextInt(0, n - 2);
          range = Interval(lo, rng.NextInt(lo, n - 1));
        }
        EXPECT_TRUE(
            executor.AnswerBatch(batch.data(), batch.size(), &answers).ok());
        take(executor.PollAndTake());
        if (iter == 10) {
          auto manual = executor.ManualReplan();
          ASSERT_TRUE(manual.ok()) << manual.status().ToString();
          logs[t].manual_epoch = manual.value().epoch;
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  manager.Drain();
  for (int t = 0; t < 2; ++t) {
    for (ReplanOutcome& outcome : executors[static_cast<std::size_t>(t)]
                                      ->TakeAnnouncements()) {
      logs[t].taken.push_back(std::move(outcome));
    }
  }

  const EpochManager::Stats stats = manager.stats();
  ASSERT_GE(stats.replans, 3u);  // 2 manual + >= 1 of 320 queries / 60
  // Republished epochs are 2..K+1 (the initial publish made epoch 1 and
  // is returned directly, never logged).
  const std::uint64_t last_epoch = stats.republishes;  // == 1 + replans
  for (int t = 0; t < 2; ++t) {
    std::vector<std::uint64_t> seen;
    int manual_from_log = 0;
    for (const ReplanOutcome& outcome : logs[t].taken) {
      ASSERT_TRUE(outcome.status.ok());
      ASSERT_TRUE(outcome.republished);
      // No session sees its own manual replan through the log...
      EXPECT_NE(outcome.epoch, logs[t].manual_epoch)
          << "session " << t << " was echoed its own manual replan";
      if (outcome.trigger == ReplanTrigger::kManual) ++manual_from_log;
      seen.push_back(outcome.epoch);
    }
    EXPECT_EQ(manual_from_log, 1) << "session " << t;  // the other's
    // ...and (log + direct manual) covers every republished epoch
    // exactly once: nothing lost, nothing duplicated.
    seen.push_back(logs[t].manual_epoch);
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "session " << t << " got a duplicated announcement";
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(last_epoch - 1));
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i + 2));
    }
    EXPECT_TRUE(logs[t].text.empty());
  }
}

// Reader threads stream batches while the manager's every-N trigger
// republishes asynchronously. Every recorded batch must be answerable
// bit-for-bit from the release of the epoch it reported — one epoch,
// one release, even mid-swap — and each release's strategy is whatever
// the logged plan that published it chose. Runs under the TSan CI job
// (EpochManagerTest.* is in its filter).
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
  auto initial = manager.PublishInitial();
  ASSERT_TRUE(initial.ok());

  struct Sample {
    std::uint64_t epoch;
    std::vector<Interval> ranges;
    std::vector<double> answers;
    /// The release current just before or just after the batch whose
    /// epoch the batch reported.
    std::shared_ptr<const Snapshot> release;
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
        std::shared_ptr<const Snapshot> before = service.snapshot();
        const std::uint64_t epoch =
            service.TryQueryBatch(ranges.data(), kBatch, answers.data())
                .value();
        std::shared_ptr<const Snapshot> release =
            before->epoch() == epoch ? std::move(before) : service.snapshot();
        // Two swaps during one batch leave neither release; skip it.
        if (iter % 5 == 0 && release->epoch() == epoch &&
            samples[static_cast<std::size_t>(t)].size() < 100) {
          samples[static_cast<std::size_t>(t)].push_back(
              Sample{epoch, ranges, answers, std::move(release)});
        }
        // Readers poll too — in a real server any thread may notice the
        // trigger; the manager must keep that race benign.
        manager.Poll();
        // Stop generating triggers once the wanted replans have fired.
        // On a starved single-core host the controller may not observe
        // the count for thousands of iterations; unbounded overshoot
        // would wrap the bounded outcome log and drop the early
        // outcomes the verification below replays.
        if (manager.stats().replans >= kWantedReplans) break;
      }
    });
  }
  std::thread controller([&] {
    while (std::chrono::steady_clock::now() < deadline) {
      manager.Poll();
      if (manager.stats().replans >= kWantedReplans) break;
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_relaxed);
  });
  controller.join();
  for (std::thread& reader : readers) reader.join();
  manager.Drain();

  // Every logged republish, by epoch.
  std::map<std::uint64_t, planner::Plan> plans;
  for (const ReplanOutcome& outcome : manager.OutcomesAfter(0)) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    if (outcome.republished) plans[outcome.epoch] = outcome.plan;
  }
  EXPECT_GE(plans.size(), 2u);
  EXPECT_EQ(manager.stats().replans, plans.size());
  // publish-from-plan really published the planned configuration.
  const std::shared_ptr<const Snapshot> last = service.snapshot();
  ASSERT_EQ(plans.rbegin()->first, last->epoch());
  EXPECT_EQ(last->strategy(), plans.rbegin()->second.options.strategy);
  EXPECT_EQ(last->shard_count(),
            std::min(plans.rbegin()->second.options.shards, n));

  // Single-epoch batch consistency: every sampled batch reproduces
  // bit-for-bit from the release of the epoch it reported, a release
  // the initial publish or a logged plan made.
  std::size_t verified = 0;
  for (const auto& reader_samples : samples) {
    for (const Sample& sample : reader_samples) {
      ASSERT_TRUE(sample.epoch == initial.value().epoch ||
                  plans.count(sample.epoch) == 1)
          << "batch reported unpublished epoch " << sample.epoch;
      if (sample.epoch != initial.value().epoch) {
        const planner::Plan& plan = plans[sample.epoch];
        EXPECT_EQ(sample.release->strategy(), plan.options.strategy);
        EXPECT_EQ(sample.release->shard_count(),
                  std::min(plan.options.shards, n));
      }
      for (std::size_t j = 0; j < sample.ranges.size(); ++j) {
        ASSERT_EQ(sample.answers[j],
                  sample.release->RangeCount(sample.ranges[j]))
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
