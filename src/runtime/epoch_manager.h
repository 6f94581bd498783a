// EpochManager: the publish lifecycle of a long-lived QueryService.
//
// PR 3 left the planner an offline advisor: `dphist serve` planned once,
// published once, and exited. The EpochManager closes the loop — it
// watches the service's observed-traffic profile and republishes when a
// trigger says the current release no longer fits the traffic:
//
//   every-N   an automatic republish every `replan_every` observed
//             queries (unconditional — a standing re-publication
//             schedule);
//   drift     every `drift_check_every` queries the manager re-runs
//             ChoosePlan on the exported profile and compares the
//             current release's predicted MSE against the best
//             candidate's; a ratio of at least 1 + drift_ratio
//             republishes, anything less is recorded as a drift check
//             and costs no privacy;
//   manual    ReplanNow() — the REPL `replan` command.
//
// A replan runs off the serving thread (options.async): the worker
// exports the profile, runs ChoosePlan, builds the snapshot, and the
// QueryService swaps it in atomically — readers never block, and every
// in-flight batch still finishes under the epoch it started on. The
// completed outcome is broadcast to every subscribed session
// (Subscribe/TakeCompleted), so each session's transcript shows each
// "# planned ..." line exactly once — with several concurrent sessions
// (the socket transport) no client can steal another's announcements.
//
// Privacy: every republish is a fresh interaction with the private data
// and spends a fresh options.base.epsilon (sequential composition across
// epochs — see README "Streaming serving"). The manager tracks the
// cumulative spend through a PrivacyAccountant; with a finite
// epsilon_budget it refuses replans that would overspend instead of
// silently degrading the guarantee.

#ifndef DPHIST_RUNTIME_EPOCH_MANAGER_H_
#define DPHIST_RUNTIME_EPOCH_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "domain/histogram.h"
#include "mechanism/privacy_accountant.h"
#include "planner/planner.h"
#include "service/query_service.h"
#include "storage/epoch_store.h"

namespace dphist::runtime {

/// Why a republish (or drift check) happened.
enum class ReplanTrigger { kInitial, kManual, kEveryN, kDrift, kRecover };

/// Short stable name ("initial", "manual", "every", "drift", "recover").
const char* ReplanTriggerName(ReplanTrigger trigger);

struct EpochManagerOptions {
  /// Per-release knobs; strategy may be kAuto (planned per publish) or
  /// concrete (the initial publish skips planning; replans still plan).
  SnapshotOptions base;
  /// Candidate enumeration for ChoosePlan.
  planner::PlannerOptions planner;
  /// Republish after this many observed queries since the last publish;
  /// 0 disables the every-N trigger.
  std::int64_t replan_every = 0;
  /// Republish when predicted-MSE(current) / predicted-MSE(best) is at
  /// least 1 + drift_ratio; 0 disables the drift trigger.
  double drift_ratio = 0.0;
  /// Observed queries between drift evaluations.
  std::int64_t drift_check_every = 256;
  /// Run triggered replans on the manager's worker thread (readers and
  /// the serving loop never wait on a build). False makes every replan
  /// synchronous — deterministic transcripts for scripted sessions.
  bool async = true;
  /// Total epsilon the manager may spend across every publish; 0 means
  /// unlimited. A replan that would overspend is refused and counted.
  double epsilon_budget = 0.0;
  /// Durable state (not owned; must outlive the manager). When set,
  /// every spend is WAL-appended and every committed publish persisted
  /// BEFORE it becomes visible, and Recover() can warm-restart the
  /// manager into its last epoch. Null keeps the manager RAM-only.
  storage::EpochStore* store = nullptr;
};

/// What one trigger firing did.
struct ReplanOutcome {
  ReplanTrigger trigger = ReplanTrigger::kManual;
  /// False when a drift check found the current release still best, or
  /// when the replan failed (see status).
  bool republished = false;
  /// True when ChoosePlan ran (always, except a concrete-strategy
  /// initial publish); `plan` is meaningful only then.
  bool planned = false;
  planner::Plan plan;
  /// Epoch of the new snapshot when republished.
  std::uint64_t epoch = 0;
  std::shared_ptr<const Snapshot> snapshot;
  /// Measured predicted-MSE ratio current/best for drift evaluations.
  double measured_drift = 0.0;
  Status status = Status::Ok();
};

/// Drives republishing for one QueryService over one private histogram.
/// All public methods are thread-safe; any number of serving sessions
/// may share one manager (each holding its own subscription).
class EpochManager {
 public:
  /// Identifies one completed-outcome subscriber (a serving session).
  using SubscriberId = std::uint64_t;
  /// Never a valid subscription: "report to nobody in particular".
  static constexpr SubscriberId kNoSubscriber = 0;
  /// Outcomes queued per subscriber before the oldest is dropped (a
  /// session that never polls must not pin every old snapshot alive).
  static constexpr std::size_t kMaxQueuedPerSubscriber = 64;

  /// Keeps a copy of `data` (replans rebuild from it) and spends from
  /// a deterministic seed stream derived from `seed`.
  EpochManager(QueryService* service, Histogram data,
               const EpochManagerOptions& options, std::uint64_t seed);

  /// Joins the worker; any in-flight replan completes first.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// First publish (synchronous). With base.strategy == kAuto, plans
  /// against `profile` when given and non-empty, else the service's
  /// observed traffic, else a neutral geometric sweep. Serialized
  /// through the same busy token replans hold, so the budget check and
  /// the spend are atomic against concurrent replans; an exhausted
  /// budget is a graceful FailedPrecondition, never an abort.
  Result<ReplanOutcome> PublishInitial(
      const planner::WorkloadProfile* profile = nullptr);

  /// Replays the configured store (options.store must be set): imports
  /// the WAL spend ledger into the accountant bit-exactly, fast-forwards
  /// the publish seed stream by one draw per recovered spend, installs
  /// the persisted snapshot (if any) as the current epoch with
  /// bit-identical answers, and keeps the persisted planner profile for
  /// replans until fresh traffic accumulates. Call once, before
  /// PublishInitial: outcome.republished tells whether a snapshot was
  /// restored (when false, the caller still needs an initial publish —
  /// which the recovered ledger gates, so a restart can never republish
  /// beyond the budget). Corrupt state is an IoError, never garbage.
  Result<ReplanOutcome> Recover();

  /// Checks the triggers against the service's observed counters and
  /// starts (async) or performs (sync) at most one replan. Returns true
  /// when a replan or drift check was started/performed by this call.
  /// Cheap when nothing fires: two atomic sums and a compare.
  bool Poll();

  /// Explicit synchronous replan (the REPL `replan` command): waits for
  /// any in-flight replan, then plans and republishes on this thread.
  /// Fails (without publishing) when the budget would be overspent or
  /// planning fails. The outcome is returned to the caller
  /// AND broadcast to every subscriber except `reporter` (the calling
  /// session reports it directly; everyone else still learns the epoch
  /// changed under them).
  Result<ReplanOutcome> ReplanNow(SubscriberId reporter = kNoSubscriber);

  /// Blocks until no replan is queued or running.
  void Drain();

  /// Registers a session for completed-outcome announcements. Only
  /// outcomes recorded after this call are delivered.
  SubscriberId Subscribe();

  /// Drops a subscription and its undelivered outcomes. Unknown ids are
  /// ignored (a session may outlive a manager reset in tests).
  void Unsubscribe(SubscriberId id);

  /// Outcomes recorded for `id` since its last call, oldest first. Each
  /// serving session polls its own subscription to print "# planned
  /// ..." lines — one session consuming its queue never steals
  /// another's announcements.
  std::vector<ReplanOutcome> TakeCompleted(SubscriberId id);

  /// Registers a callback invoked — outside every manager lock — right
  /// after an outcome has been broadcast to the subscriber queues. The
  /// non-blocking transport binds this to its wakeup pipe so completed
  /// replans become write-queue pushes: sessions parked in epoll learn
  /// about a republish immediately instead of at their next command.
  /// At most one notifier (last call wins); nullptr clears it. The
  /// callback runs on whichever thread finished the replan (worker or a
  /// sync caller) and must be cheap and must not call back into the
  /// manager. This call BLOCKS until any in-flight invocation of the
  /// previous notifier returns, so `SetAnnouncementNotifier(nullptr)`
  /// is a safe unhook: afterwards the old callback's captures may be
  /// destroyed.
  void SetAnnouncementNotifier(std::function<void()> notifier);

  struct Stats {
    std::uint64_t republishes = 0;    // successful publishes incl. initial
    std::uint64_t manual = 0;         // republishes by trigger
    std::uint64_t every = 0;
    std::uint64_t drift = 0;
    std::uint64_t drift_checks = 0;   // evaluations that kept the release
    std::uint64_t failures = 0;       // attempts that errored
    std::uint64_t budget_refusals = 0;
    std::uint64_t recoveries = 0;     // successful Recover() calls
    /// Announcements evicted from a subscriber queue that outgrew
    /// kMaxQueuedPerSubscriber (a session that stopped polling).
    std::uint64_t announcements_dropped = 0;
    double epsilon_spent = 0.0;
    double epsilon_budget = 0.0;      // 0 = unlimited
  };
  Stats stats() const;

  const EpochManagerOptions& options() const { return options_; }

 private:
  /// The full replan: export profile, ChoosePlan, drift gate, budget
  /// gate, publish. Runs with the busy token held (never concurrently
  /// with itself); takes mutex_ only for short state reads/writes.
  ReplanOutcome ExecuteReplan(ReplanTrigger trigger)
      DPHIST_REQUIRES(busy_cap_);

  /// The spend-before-publish core shared by PublishInitial and
  /// ExecuteReplan (busy token held, mutex_ not). In order: budget gate
  /// + seed draw + in-memory charge (atomic under mutex_), durable WAL
  /// spend append, snapshot build, durable swap append + snapshot
  /// persist, and only then the in-memory commit — so a crash at ANY
  /// point either never charged, or charged for a release that was
  /// never served (conservative). Any failure after the charge rolls
  /// back both the ledger entry and the WAL records.
  Result<std::shared_ptr<const Snapshot>> ChargeAndPublish(
      const SnapshotOptions& options, const std::string& purpose,
      const planner::WorkloadProfile* profile)
      DPHIST_REQUIRES(busy_cap_) DPHIST_EXCLUDES(mutex_);

  /// Undoes an in-memory charge (and, when `logged`, its WAL record)
  /// after the publish it paid for failed.
  void RollbackCharge(bool logged, std::uint64_t wal_offset)
      DPHIST_REQUIRES(busy_cap_) DPHIST_EXCLUDES(mutex_);

  /// Blocks until the busy token is free (no replan queued or running)
  /// and takes it / releases it. Every path that spends epsilon holds
  /// the token across its CanSpend check and the Spend, so the gate can
  /// never be invalidated by a concurrent publish. The phantom
  /// busy_cap_ mirrors the busy_ flag so the analysis proves every
  /// acquire is paired with a release on every path.
  void AcquireBusy() DPHIST_ACQUIRE(busy_cap_) DPHIST_EXCLUDES(mutex_);
  void ReleaseBusy() DPHIST_RELEASE(busy_cap_) DPHIST_EXCLUDES(mutex_);

  /// Evaluates the every-N and drift triggers against the service's
  /// observed counters; false when nothing is due or a replan is
  /// already queued/running/stopping.
  bool PollTriggerLocked(ReplanTrigger* trigger) DPHIST_REQUIRES(mutex_);

  /// Sync-mode Poll: evaluates the triggers and takes the busy token in
  /// ONE critical section (decision and take must be atomic, or two
  /// concurrent pollers could both fire). True = token taken.
  bool TryStartSyncReplan(ReplanTrigger* trigger)
      DPHIST_TRY_ACQUIRE(true, busy_cap_) DPHIST_EXCLUDES(mutex_);

  /// Decrements notifier_calls_in_flight_ and wakes a pending
  /// SetAnnouncementNotifier; paired with the increment each call site
  /// takes under mutex_ before invoking the notifier unlocked.
  void FinishNotifierCall() DPHIST_EXCLUDES(mutex_);

  /// Records the outcome in stats_ and broadcasts it to every
  /// subscriber queue except `skip`.
  void RecordLocked(const ReplanOutcome& outcome,
                    SubscriberId skip = kNoSubscriber)
      DPHIST_REQUIRES(mutex_);

  /// Next publish seed from the deterministic stream.
  std::uint64_t NextSeedLocked() DPHIST_REQUIRES(mutex_);

  void WorkerLoop();

  QueryService* service_;
  const Histogram data_;
  const EpochManagerOptions options_;

  /// The busy token as an analysis capability: "at most one replan in
  /// flight" is enforced at runtime by busy_ under mutex_; this phantom
  /// lets spend/publish functions require the token so the compiler
  /// checks that every acquire path releases it (the historical bug
  /// class here was an early return that left busy_ stuck).
  PhantomCapability busy_cap_;

  /// Long-lived incremental cost cache shared by every plan and drift
  /// evaluation this manager runs. Guarded by the busy token, not
  /// mutex_: only the token holder may touch it, and holding the token
  /// never requires holding the mutex.
  planner::IncrementalCostModel cost_cache_ DPHIST_GUARDED_BY(busy_cap_);

  mutable Mutex mutex_;
  CondVar work_cv_;  // wakes the worker
  CondVar idle_cv_;  // wakes Drain/ReplanNow waiters
  bool stop_ DPHIST_GUARDED_BY(mutex_) = false;
  bool request_pending_ DPHIST_GUARDED_BY(mutex_) = false;
  ReplanTrigger request_trigger_ DPHIST_GUARDED_BY(mutex_) =
      ReplanTrigger::kManual;
  /// A replan is executing (worker or sync caller); runtime twin of
  /// busy_cap_.
  bool busy_ DPHIST_GUARDED_BY(mutex_) = false;
  /// Per-subscriber undelivered outcomes; every recorded outcome is
  /// appended to every queue (minus the skip id), bounded at
  /// kMaxQueuedPerSubscriber by dropping the oldest.
  std::map<SubscriberId, std::deque<ReplanOutcome>> subscribers_
      DPHIST_GUARDED_BY(mutex_);
  SubscriberId next_subscriber_ DPHIST_GUARDED_BY(mutex_) = 1;
  /// Copied out under mutex_ and invoked unlocked after each broadcast.
  std::function<void()> announcement_notifier_ DPHIST_GUARDED_BY(mutex_);
  /// Unlocked notifier calls currently executing. SetAnnouncementNotifier
  /// waits for zero before swapping, so unhooking guarantees the old
  /// callback is not (and will never again be) mid-call — the caller may
  /// free whatever it touches.
  int notifier_calls_in_flight_ DPHIST_GUARDED_BY(mutex_) = 0;
  Stats stats_ DPHIST_GUARDED_BY(mutex_);
  PrivacyAccountant accountant_ DPHIST_GUARDED_BY(mutex_);
  /// Observed-query counts anchoring the every-N and drift triggers.
  std::uint64_t count_at_last_publish_ DPHIST_GUARDED_BY(mutex_) = 0;
  std::uint64_t count_at_last_drift_check_ DPHIST_GUARDED_BY(mutex_) = 0;
  Rng seed_rng_ DPHIST_GUARDED_BY(mutex_);
  /// The planner profile recovered from the store, used by replans while
  /// the observed workload is still empty. Mutated under the busy token.
  std::optional<planner::WorkloadProfile> recovered_profile_
      DPHIST_GUARDED_BY(busy_cap_);
  std::thread worker_;  // running only when options_.async
};

/// Scoped subscription: subscribes on construction, unsubscribes on
/// destruction. Every serving session holds one for its lifetime.
class EpochSubscription {
 public:
  explicit EpochSubscription(EpochManager& manager)
      : manager_(manager), id_(manager.Subscribe()) {}
  ~EpochSubscription() { manager_.Unsubscribe(id_); }

  EpochSubscription(const EpochSubscription&) = delete;
  EpochSubscription& operator=(const EpochSubscription&) = delete;

  EpochManager::SubscriberId id() const { return id_; }

 private:
  EpochManager& manager_;
  EpochManager::SubscriberId id_;
};

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_EPOCH_MANAGER_H_
