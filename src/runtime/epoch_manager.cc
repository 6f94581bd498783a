#include "runtime/epoch_manager.h"

#include <iterator>
#include <limits>
#include <utility>

#include "common/check.h"
#include "planner/cost_model.h"
#include "planner/workload_profile.h"

namespace dphist::runtime {

const char* ReplanTriggerName(ReplanTrigger trigger) {
  switch (trigger) {
    case ReplanTrigger::kInitial:
      return "initial";
    case ReplanTrigger::kManual:
      return "manual";
    case ReplanTrigger::kEveryN:
      return "every";
    case ReplanTrigger::kDrift:
      return "drift";
    case ReplanTrigger::kRecover:
      return "recover";
  }
  return "unknown";
}

EpochManager::EpochManager(QueryService* service, Histogram data,
                           const EpochManagerOptions& options,
                           std::uint64_t seed)
    : service_(service),
      data_(std::move(data)),
      options_(options),
      cost_cache_(data_.size()),
      accountant_(options.epsilon_budget > 0.0
                      ? options.epsilon_budget
                      : std::numeric_limits<double>::infinity()),
      seed_rng_(seed) {
  DPHIST_CHECK_MSG(service_ != nullptr, "EpochManager needs a service");
  stats_.epsilon_budget = options_.epsilon_budget;
  if (options_.async) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

EpochManager::~EpochManager() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

std::uint64_t EpochManager::NextSeedLocked() {
  return static_cast<std::uint64_t>(
      seed_rng_.NextInt(0, std::numeric_limits<std::int64_t>::max()));
}

void EpochManager::AcquireBusy() {
  MutexLock lock(mutex_);
  while (busy_ || request_pending_) idle_cv_.Wait(mutex_);
  busy_ = true;
  busy_cap_.Acquire();
}

void EpochManager::ReleaseBusy() {
  {
    MutexLock lock(mutex_);
    busy_ = false;
    busy_cap_.Release();
  }
  idle_cv_.NotifyAll();
}

void EpochManager::RollbackCharge(bool logged, std::uint64_t wal_offset) {
  {
    MutexLock lock(mutex_);
    // Can only fail on an empty ledger, and we charged moments ago under
    // the busy token nobody else holds — a true programming error.
    Status rolled = accountant_.RollbackLast();
    DPHIST_CHECK_MSG(rolled.ok(), "rollback of a fresh charge failed");
    stats_.epsilon_spent = accountant_.spent();
  }
  if (logged && options_.store != nullptr) {
    // Best-effort: if the truncation itself fails, the WAL over-counts
    // the budget relative to memory — conservative (epsilon lost, never
    // minted), and the next Recover() simply charges it again.
    (void)options_.store->RollbackTo(wal_offset);
  }
}

Result<std::shared_ptr<const Snapshot>> EpochManager::ChargeAndPublish(
    const SnapshotOptions& options, const std::string& purpose,
    const planner::WorkloadProfile* profile) {
  // Gate, seed, and charge atomically under mutex_ (the busy token we
  // hold keeps any other spend path out between the gate and the
  // charge). The seed is drawn only on a successful charge, so the seed
  // stream advances exactly once per ledger entry — what lets Recover()
  // fast-forward it by the replayed ledger's length.
  std::uint64_t seed = 0;
  {
    MutexLock lock(mutex_);
    if (!accountant_.CanSpend(options.epsilon)) {
      stats_.budget_refusals += 1;
      return Status::FailedPrecondition(
          "refused: spending " + std::to_string(options.epsilon) +
          " would exceed the epsilon budget (remaining " +
          std::to_string(accountant_.remaining()) + ")");
    }
    seed = NextSeedLocked();
    Status spent = accountant_.Spend(options.epsilon, purpose);
    if (!spent.ok()) {
      // Unreachable after a passing gate, but a refused spend must stay
      // a refusal — not a CHECK-abort — on the server.
      stats_.budget_refusals += 1;
      return spent;
    }
    stats_.epsilon_spent = accountant_.spent();
  }

  // Durability point: once this append returns, a crash anywhere below
  // still counts the epsilon on replay.
  std::uint64_t wal_offset = 0;
  bool logged = false;
  if (options_.store != nullptr) {
    Result<std::uint64_t> offset =
        options_.store->AppendSpend(options.epsilon, purpose);
    if (!offset.ok()) {
      RollbackCharge(false, 0);
      return offset.status();
    }
    wal_offset = offset.value();
    logged = true;
  }

  Result<QueryService::PendingPublish> pending =
      service_->BuildForPublish(data_, options, seed);
  if (!pending.ok()) {
    RollbackCharge(logged, wal_offset);
    return pending.status();
  }

  if (options_.store != nullptr) {
    // Swap record before snapshot persist: if either fails, truncating
    // back to wal_offset removes both and no durable artifact of this
    // never-visible epoch remains (PersistSnapshot replaces the
    // snapshot file atomically as its last step).
    Status swap = options_.store->AppendEpochSwap(pending.value().epoch());
    if (!swap.ok()) {
      RollbackCharge(true, wal_offset);
      return swap;
    }
    Status persisted = options_.store->PersistSnapshot(
        *pending.value().snapshot(), profile);
    if (!persisted.ok()) {
      RollbackCharge(true, wal_offset);
      return persisted;
    }
  }
  return service_->CommitPublish(std::move(pending).value());
}

Result<ReplanOutcome> EpochManager::PublishInitial(
    const planner::WorkloadProfile* profile) {
  ReplanOutcome outcome;
  outcome.trigger = ReplanTrigger::kInitial;

  // Hold the busy token across gate -> charge -> publish. Without it a
  // concurrent replan could drain the budget between the CanSpend check
  // and the Spend (the TOCTOU that used to CHECK-abort a server whose
  // two sessions raced a replan against a publish).
  AcquireBusy();
  SnapshotOptions chosen = options_.base;
  const planner::WorkloadProfile* persist_profile = profile;
  std::optional<planner::WorkloadProfile> planning;
  if (options_.base.strategy == StrategyKind::kAuto) {
    planning = (profile != nullptr && !profile->empty())
                   ? *profile
                   : service_->ObservedWorkload(data_.size());
    if (planning->empty() && recovered_profile_.has_value()) {
      planning = *recovered_profile_;
    }
    if (planning->empty()) {
      planning = planner::WorkloadProfile::GeometricSweep(data_.size());
    }
    Result<planner::Plan> plan = planner::ChoosePlan(
        *planning, options_.base, options_.planner, &cost_cache_);
    if (!plan.ok()) {
      ReleaseBusy();
      return plan.status();
    }
    outcome.planned = true;
    outcome.plan = std::move(plan).value();
    chosen = outcome.plan.options;
    persist_profile = &*planning;
  }

  Result<std::shared_ptr<const Snapshot>> published =
      ChargeAndPublish(chosen, "publish (initial)", persist_profile);
  if (!published.ok()) {
    ReleaseBusy();
    return published.status();
  }

  outcome.republished = true;
  outcome.snapshot = published.value();
  outcome.epoch = outcome.snapshot->epoch();
  {
    MutexLock lock(mutex_);
    stats_.republishes += 1;
    count_at_last_publish_ = service_->observed_query_count();
    count_at_last_drift_check_ = count_at_last_publish_;
  }
  ReleaseBusy();
  return outcome;
}

Result<ReplanOutcome> EpochManager::Recover() {
  if (options_.store == nullptr) {
    return Status::FailedPrecondition(
        "Recover needs a configured EpochStore (options.store)");
  }
  AcquireBusy();
  Result<storage::RecoveredState> recovered = options_.store->Recover();
  if (!recovered.ok()) {
    ReleaseBusy();
    return recovered.status();
  }
  storage::RecoveredState state = std::move(recovered).value();

  ReplanOutcome outcome;
  outcome.trigger = ReplanTrigger::kRecover;
  {
    MutexLock lock(mutex_);
    const std::size_t entries = state.ledger.size();
    Status imported = accountant_.ImportLedger(std::move(state.ledger));
    if (!imported.ok()) {
      ReleaseBusy();
      return imported;
    }
    stats_.epsilon_spent = accountant_.spent();
    // One publish seed was drawn per ledger entry in the crashed
    // process; fast-forward past them so post-restart publishes draw
    // the seeds they would have drawn had the process never died.
    for (std::size_t i = 0; i < entries; ++i) (void)NextSeedLocked();
  }

  if (state.snapshot != nullptr) {
    if (state.snapshot->domain_size() != data_.size()) {
      ReleaseBusy();
      return Status::IoError(
          "recovered snapshot covers a different domain (" +
          std::to_string(state.snapshot->domain_size()) + " positions vs " +
          std::to_string(data_.size()) + " in the data)");
    }
    Result<std::shared_ptr<const Snapshot>> installed =
        service_->PublishRestored(state.snapshot);
    if (!installed.ok()) {
      ReleaseBusy();
      return installed.status();
    }
    outcome.republished = true;
    outcome.snapshot = std::move(state.snapshot);
    outcome.epoch = outcome.snapshot->epoch();
  }
  recovered_profile_ = std::move(state.profile);

  {
    MutexLock lock(mutex_);
    stats_.recoveries += 1;
    if (outcome.republished) stats_.republishes += 1;
    count_at_last_publish_ = service_->observed_query_count();
    count_at_last_drift_check_ = count_at_last_publish_;
  }
  ReleaseBusy();
  return outcome;
}

ReplanOutcome EpochManager::ExecuteReplan(ReplanTrigger trigger) {
  ReplanOutcome outcome;
  outcome.trigger = trigger;

  planner::WorkloadProfile profile =
      service_->ObservedWorkload(data_.size());
  if (profile.empty() && recovered_profile_.has_value()) {
    // Fresh restart, no traffic yet: plan against the profile the
    // crashed process persisted rather than a blind prior.
    profile = *recovered_profile_;
  }
  if (profile.empty()) {
    profile = planner::WorkloadProfile::GeometricSweep(data_.size());
  }
  Result<planner::Plan> plan = planner::ChoosePlan(
      profile, options_.base, options_.planner, &cost_cache_);
  if (!plan.ok()) {
    outcome.status = plan.status();
    return outcome;
  }
  outcome.planned = true;
  outcome.plan = std::move(plan).value();

  if (trigger == ReplanTrigger::kDrift) {
    // Gate on measured drift: republish only when the current release's
    // predicted error exceeds the best candidate's by the configured
    // ratio. Keeping the release costs no privacy.
    std::shared_ptr<const Snapshot> current = service_->snapshot();
    if (current == nullptr) {
      // Traffic can trip the drift trigger before anything was ever
      // published (queries observed pre-PublishInitial); there is no
      // release to compare against, so refuse gracefully.
      outcome.status = Status::FailedPrecondition(
          "drift check before first publish");
      return outcome;
    }
    // Snapshot::Build and Restore refuse every configuration the cost
    // model would, so the live release is always costable.
    Result<planner::QueryCost> current_cost =
        cost_cache_.Evaluate(current->options(), profile);
    if (!current_cost.ok()) {
      outcome.status = current_cost.status();
      return outcome;
    }
    outcome.measured_drift = current_cost.value().mean_variance /
                             outcome.plan.predicted_mean_variance;
    if (outcome.measured_drift < 1.0 + options_.drift_ratio) {
      return outcome;  // still the right release
    }
  }

  Result<std::shared_ptr<const Snapshot>> published = ChargeAndPublish(
      outcome.plan.options,
      std::string("replan (") + ReplanTriggerName(trigger) + ")", &profile);
  if (!published.ok()) {
    outcome.status = published.status();
    return outcome;
  }
  outcome.republished = true;
  outcome.snapshot = published.value();
  outcome.epoch = outcome.snapshot->epoch();
  return outcome;
}

void EpochManager::RecordLocked(const ReplanOutcome& outcome,
                                SubscriberId skip) {
  if (outcome.republished) {
    stats_.republishes += 1;
    switch (outcome.trigger) {
      case ReplanTrigger::kManual:
        stats_.manual += 1;
        break;
      case ReplanTrigger::kEveryN:
        stats_.every += 1;
        break;
      case ReplanTrigger::kDrift:
        stats_.drift += 1;
        break;
      case ReplanTrigger::kInitial:
      case ReplanTrigger::kRecover:
        break;
    }
  } else if (outcome.status.ok()) {
    stats_.drift_checks += 1;
  } else if (outcome.status.code() != StatusCode::kFailedPrecondition) {
    // Budget refusals were already counted at the gate.
    stats_.failures += 1;
  }
  // Re-anchor both triggers at the traffic level the decision saw, so a
  // refusal or no-drift verdict backs off instead of refiring every
  // Poll.
  count_at_last_publish_ = service_->observed_query_count();
  count_at_last_drift_check_ = count_at_last_publish_;
  // Broadcast: every subscribed session gets its own copy, so one
  // session draining its queue never consumes another's announcement.
  for (auto& [id, queue] : subscribers_) {
    if (id == skip) continue;
    if (queue.size() >= kMaxQueuedPerSubscriber) {
      queue.pop_front();
      stats_.announcements_dropped += 1;
    }
    queue.push_back(outcome);
  }
}

bool EpochManager::PollTriggerLocked(ReplanTrigger* trigger) {
  if (busy_ || request_pending_ || stop_) return false;
  const std::uint64_t count = service_->observed_query_count();
  if (options_.replan_every > 0 &&
      count - count_at_last_publish_ >=
          static_cast<std::uint64_t>(options_.replan_every)) {
    *trigger = ReplanTrigger::kEveryN;
    return true;
  }
  if (options_.drift_ratio > 0.0 &&
      count - count_at_last_drift_check_ >=
          static_cast<std::uint64_t>(
              std::max<std::int64_t>(1, options_.drift_check_every))) {
    *trigger = ReplanTrigger::kDrift;
    return true;
  }
  return false;
}

bool EpochManager::TryStartSyncReplan(ReplanTrigger* trigger) {
  MutexLock lock(mutex_);
  if (!PollTriggerLocked(trigger)) return false;
  busy_ = true;
  busy_cap_.Acquire();
  return true;
}

bool EpochManager::Poll() {
  if (options_.async) {
    ReplanTrigger trigger;
    {
      MutexLock lock(mutex_);
      if (!PollTriggerLocked(&trigger)) return false;
      request_pending_ = true;
      request_trigger_ = trigger;
    }
    work_cv_.NotifyOne();
    return true;
  }
  ReplanTrigger trigger;
  if (!TryStartSyncReplan(&trigger)) return false;
  ReplanOutcome outcome = ExecuteReplan(trigger);
  std::function<void()> notify;
  {
    MutexLock lock(mutex_);
    RecordLocked(outcome);
    busy_ = false;
    busy_cap_.Release();
    notify = announcement_notifier_;
    if (notify) notifier_calls_in_flight_ += 1;
  }
  idle_cv_.NotifyAll();
  if (notify) {
    notify();
    FinishNotifierCall();
  }
  return true;
}

Result<ReplanOutcome> EpochManager::ReplanNow(SubscriberId reporter) {
  AcquireBusy();
  ReplanOutcome outcome = ExecuteReplan(ReplanTrigger::kManual);
  std::function<void()> notify;
  {
    MutexLock lock(mutex_);
    // The caller reports this outcome directly, so its own subscription
    // is skipped; every other session still gets the announcement.
    RecordLocked(outcome, /*skip=*/reporter);
    busy_ = false;
    busy_cap_.Release();
    notify = announcement_notifier_;
    if (notify) notifier_calls_in_flight_ += 1;
  }
  idle_cv_.NotifyAll();
  if (notify) {
    notify();
    FinishNotifierCall();
  }
  if (!outcome.status.ok()) return outcome.status;
  return outcome;
}

void EpochManager::Drain() {
  MutexLock lock(mutex_);
  while (busy_ || request_pending_) idle_cv_.Wait(mutex_);
}

EpochManager::SubscriberId EpochManager::Subscribe() {
  MutexLock lock(mutex_);
  const SubscriberId id = next_subscriber_++;
  subscribers_[id];  // creates the empty queue
  return id;
}

void EpochManager::Unsubscribe(SubscriberId id) {
  MutexLock lock(mutex_);
  subscribers_.erase(id);
}

std::vector<ReplanOutcome> EpochManager::TakeCompleted(SubscriberId id) {
  MutexLock lock(mutex_);
  auto it = subscribers_.find(id);
  if (it == subscribers_.end()) return {};
  std::vector<ReplanOutcome> taken(
      std::make_move_iterator(it->second.begin()),
      std::make_move_iterator(it->second.end()));
  it->second.clear();
  return taken;
}

void EpochManager::SetAnnouncementNotifier(std::function<void()> notifier) {
  MutexLock lock(mutex_);
  // Every call site copies the notifier and bumps the in-flight count
  // under mutex_ before invoking it unlocked, so waiting for zero here
  // means the OLD callback is not mid-call on any thread — the caller
  // may tear down whatever it captures the moment we return.
  while (notifier_calls_in_flight_ != 0) idle_cv_.Wait(mutex_);
  announcement_notifier_ = std::move(notifier);
}

void EpochManager::FinishNotifierCall() {
  {
    MutexLock lock(mutex_);
    notifier_calls_in_flight_ -= 1;
  }
  idle_cv_.NotifyAll();
}

EpochManager::Stats EpochManager::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void EpochManager::WorkerLoop() {
  mutex_.Lock();
  while (true) {
    while (!stop_ && !request_pending_) work_cv_.Wait(mutex_);
    if (stop_) break;
    const ReplanTrigger trigger = request_trigger_;
    request_pending_ = false;
    busy_ = true;
    busy_cap_.Acquire();
    mutex_.Unlock();
    ReplanOutcome outcome = ExecuteReplan(trigger);
    mutex_.Lock();
    RecordLocked(outcome);
    busy_ = false;
    busy_cap_.Release();
    std::function<void()> notify = announcement_notifier_;
    if (notify) notifier_calls_in_flight_ += 1;
    mutex_.Unlock();
    idle_cv_.NotifyAll();
    if (notify) {
      notify();
      FinishNotifierCall();
    }
    mutex_.Lock();
  }
  mutex_.Unlock();
}

}  // namespace dphist::runtime
