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
//   drift     every kDriftCheckEvery (256) queries the manager re-runs
//             ChoosePlan on the exported profile and compares the
//             current release's predicted MSE against the best
//             candidate's; a ratio of at least 1 + drift_ratio
//             republishes, anything less is recorded as a drift check
//             and costs no privacy;
//   manual    ReplanNow() — the REPL `replan` command.
//
// Every plan is made for one profile, chosen by one rule: the traffic
// given to PublishInitial, else the service's observed traffic, else
// the profile recovered from the store, else a neutral geometric sweep.
// Every plan and drift check costs its candidates through one
// long-lived planner::CostModel, so a replan re-runs the closed forms
// only for lengths it has not costed before.
//
// Every triggered replan runs on the manager's worker thread: it
// exports the profile, runs ChoosePlan, builds the snapshot, and the
// QueryService swaps it in atomically — readers never block, and every
// in-flight batch still finishes under the epoch it started on. With
// options.async false the Poll that queued the replan waits for it, so
// a scripted session reports it before its next line. ReplanNow,
// PublishInitial and Recover run on their caller.
//
// Each replan outcome is recorded once, with a sequence number, in a log
// of the last kLogCapacity outcomes. A serving session reads the log
// from its own cursor (last_sequence / OutcomesAfter), so its transcript
// shows each "# planned ..." line exactly once, and a session that stops
// reading holds nothing but its cursor: the log keeps no release alive.
//
// Privacy: every republish is a fresh interaction with the private data
// and spends a fresh options.base.epsilon (sequential composition across
// epochs — see README "Streaming serving"). The manager tracks the
// cumulative spend through a PrivacyAccountant; with a finite
// epsilon_budget it refuses replans that would overspend instead of
// silently degrading the guarantee.

#ifndef DPHIST_RUNTIME_EPOCH_MANAGER_H_
#define DPHIST_RUNTIME_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
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
  /// least 1 + drift_ratio, checked every EpochManager::kDriftCheckEvery
  /// observed queries; 0 disables the drift trigger.
  double drift_ratio = 0.0;
  /// Triggered replans always run on the manager's worker thread; true
  /// lets the Poll that queued one return at once (the serving loop never
  /// waits on a build). False makes that Poll wait for the replan —
  /// deterministic transcripts for scripted sessions.
  bool async = true;
  /// Total epsilon the manager may spend across every publish; 0 means
  /// unlimited. A replan that would overspend is refused.
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
  /// Epoch of the new snapshot when republished, of the kept one when a
  /// drift check keeps it.
  std::uint64_t epoch = 0;
  /// Measured predicted-MSE ratio current/best for drift evaluations.
  double measured_drift = 0.0;
  Status status = Status::Ok();
  /// Position in the manager's outcome log (1, 2, ...); 0 for the
  /// outcomes PublishInitial and Recover return, which are not logged.
  std::uint64_t sequence = 0;
};

/// Drives republishing for one QueryService over one private histogram.
/// All public methods are thread-safe; any number of serving sessions
/// may share one manager (each reading the outcome log by its own cursor).
class EpochManager {
 public:
  /// Outcomes the log keeps; a reader further behind misses the oldest.
  static constexpr std::size_t kLogCapacity = 64;
  /// Observed queries between drift evaluations.
  static constexpr std::uint64_t kDriftCheckEvery = 256;

  /// Keeps a copy of `data` (replans rebuild from it) and spends from
  /// a deterministic seed stream derived from `seed`.
  EpochManager(QueryService* service, Histogram data,
               const EpochManagerOptions& options, std::uint64_t seed);

  /// Joins the worker; any running replan completes first.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// First publish (synchronous). With base.strategy == kAuto, plans
  /// against `profile` when given and non-empty, else by the rule every
  /// replan follows (see the header comment). Serialized through the
  /// same busy token replans hold, so the budget check and the spend are
  /// atomic against concurrent replans; an exhausted budget is a
  /// graceful FailedPrecondition, never an abort.
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
  /// queues at most one replan for the worker; with options.async false
  /// it then waits for the worker to finish (Drain). Returns true when
  /// this call queued a replan or drift check. Returns false without
  /// locking when neither trigger is configured; otherwise a configured
  /// trigger reads one counter per stripe.
  bool Poll();

  /// Explicit replan on this thread (the REPL `replan` command): waits
  /// for any queued or running replan, then plans and republishes.
  /// `status` says whether it failed (without publishing) because the
  /// budget would be overspent or planning failed. Logged like every
  /// other replan: the calling session reports it directly and skips
  /// its `sequence` in the log.
  ReplanOutcome ReplanNow();

  /// Blocks until no replan is queued or running.
  void Drain();

  /// Sequence number of the newest logged outcome (0 before any): one
  /// atomic load, so a session checks for news on every command
  /// without taking the manager's lock.
  std::uint64_t last_sequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }

  /// The logged outcomes whose sequence number is above `after`, oldest
  /// first (at most the last kLogCapacity).
  std::vector<ReplanOutcome> OutcomesAfter(std::uint64_t after) const;

  /// Registers a callback invoked right after each outcome is logged.
  /// The non-blocking transport binds this to its wakeup pipe so
  /// completed replans become write-queue pushes: sessions parked in
  /// epoll learn about a republish immediately instead of at their next
  /// command. At most one notifier (last call wins); nullptr clears it.
  /// The callback runs on whichever thread finished the replan (the
  /// worker or a ReplanNow caller), under a mutex this call also takes,
  /// and must be cheap and must not call back into the manager. So
  /// `SetAnnouncementNotifier(nullptr)` is a safe unhook: afterwards the
  /// old callback's captures may be destroyed.
  void SetAnnouncementNotifier(std::function<void()> notifier);

  struct Stats {
    std::uint64_t republishes = 0;   // successful publishes incl. initial
    std::uint64_t replans = 0;       // republishes by a trigger or ReplanNow
    std::uint64_t drift_checks = 0;  // evaluations that kept the release
    /// Replans that errored; a refusal (budget, no release yet) is not
    /// counted.
    std::uint64_t failures = 0;
    double epsilon_spent = 0.0;
  };
  Stats stats() const;

  const EpochManagerOptions& options() const { return options_; }

 private:
  /// The full replan: export profile, ChoosePlan, drift gate, budget
  /// gate, publish. Runs with the busy token held (never concurrently
  /// with itself); takes mutex_ only for short state reads/writes.
  ReplanOutcome ExecuteReplan(ReplanTrigger trigger)
      DPHIST_REQUIRES(busy_cap_);

  /// The header comment's profile rule: `given` when non-null and
  /// non-empty, else the observed traffic, else the recovered profile,
  /// else the geometric sweep.
  planner::WorkloadProfile PlanningProfile(
      const planner::WorkloadProfile* given) const DPHIST_REQUIRES(busy_cap_);

  /// The spend-before-publish core shared by PublishInitial and
  /// ExecuteReplan (busy token held, mutex_ not). In order: budget gate
  /// + seed draw + in-memory charge (atomic under mutex_), durable WAL
  /// spend append, snapshot build, durable swap append + snapshot
  /// persist, and only then the in-memory commit — so a crash at ANY
  /// point either never charged, or charged for a release that was
  /// never served (conservative). Any failure after the charge rolls
  /// back both the ledger entry and the WAL records, except one after
  /// the snapshot file's rename: a restart serves that release, so its
  /// charge and records stay, and it is still not committed.
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

  /// The tail of every logged replan (ReplanNow, the worker): logs the
  /// outcome (RecordLocked), frees the busy token, then calls the
  /// announcement notifier under notifier_mutex_. Returns the outcome
  /// with its sequence number.
  ReplanOutcome FinishReplan(ReplanOutcome outcome)
      DPHIST_RELEASE(busy_cap_) DPHIST_EXCLUDES(mutex_);

  /// Counts the outcome in stats_, re-anchors the triggers and appends
  /// it to the log under the next sequence number.
  void RecordLocked(ReplanOutcome& outcome) DPHIST_REQUIRES(mutex_);

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

  /// The cost model every plan and drift evaluation of this manager
  /// shares, so its memo outlives each replan. Guarded by the busy
  /// token, not mutex_: only the token holder may touch it, and holding
  /// the token never requires holding the mutex.
  planner::CostModel cost_model_ DPHIST_GUARDED_BY(busy_cap_);

  mutable Mutex mutex_;
  CondVar work_cv_;  // wakes the worker
  CondVar idle_cv_;  // wakes Drain/ReplanNow waiters
  bool stop_ DPHIST_GUARDED_BY(mutex_) = false;
  bool request_pending_ DPHIST_GUARDED_BY(mutex_) = false;
  ReplanTrigger request_trigger_ DPHIST_GUARDED_BY(mutex_) =
      ReplanTrigger::kManual;
  /// A replan is executing (worker or ReplanNow caller); runtime twin
  /// of busy_cap_.
  bool busy_ DPHIST_GUARDED_BY(mutex_) = false;
  /// The last kLogCapacity outcomes, oldest first, sequence numbers
  /// consecutive; last_sequence_ is the back's (written under mutex_).
  std::deque<ReplanOutcome> log_ DPHIST_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> last_sequence_{0};
  Stats stats_ DPHIST_GUARDED_BY(mutex_);
  PrivacyAccountant accountant_ DPHIST_GUARDED_BY(mutex_);
  /// Observed-query count anchoring the every-N and drift triggers.
  std::uint64_t count_at_last_publish_ DPHIST_GUARDED_BY(mutex_) = 0;
  Rng seed_rng_ DPHIST_GUARDED_BY(mutex_);
  /// The planner profile recovered from the store, used by replans while
  /// the observed workload is still empty. Mutated under the busy token.
  std::optional<planner::WorkloadProfile> recovered_profile_
      DPHIST_GUARDED_BY(busy_cap_);
  /// Held while the notifier is called or replaced.
  Mutex notifier_mutex_;
  std::function<void()> announcement_notifier_
      DPHIST_GUARDED_BY(notifier_mutex_);
  std::thread worker_;  // runs every triggered replan
};

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_EPOCH_MANAGER_H_
