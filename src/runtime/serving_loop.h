// The serving runtime's command loop: one executor for every way a
// session reaches the server.
//
// RunStreamingSession drives an interactive (REPL) session: commands are
// parsed and answered one at a time, output is flushed after every
// command, parse errors are reported and survived, and completed
// asynchronous replans are announced as "# planned ..." lines between
// commands. RunScriptedSession drives a pre-parsed script (the
// `serve --queries FILE` path): runs of consecutive single-range query
// commands are coalesced into one batch (one answering pass per run, not
// per line), `qb` batches execute as one batch of their own,
// control commands execute between runs, and any error aborts the
// script — the strictness workload files always had.
//
// Both entry points — and the non-blocking socket state machines, which
// call the SessionExecutor directly from a readiness loop instead of
// through a blocking read — answer queries through the same QueryService
// calls and report through the same SessionWriter formats, so a
// transcript from one mode reads like the other; after every command (or
// coalesced run) the EpochManager is polled, which is what lets the
// every-N and drift triggers fire mid-session.

#ifndef DPHIST_RUNTIME_SERVING_LOOP_H_
#define DPHIST_RUNTIME_SERVING_LOOP_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/epoch_manager.h"
#include "runtime/session.h"
#include "service/query_service.h"

namespace dphist::runtime {

/// What a session did, for the final "# served ..." report and the
/// per-session `stats` fields (multi-tenant debugging: which tenant
/// sends the most traffic, which never saw a republish).
struct SessionSummary {
  std::uint64_t queries = 0;           // ranges answered
  std::uint64_t replans_reported = 0;  // "# planned ..." lines / PLAN frames
  std::uint64_t last_epoch = 0;        // epoch of the last answered batch
  std::uint64_t batches = 0;     // qb commands / binary QUERY frames
  /// Distinct consecutive epoch values this session answered under (an
  /// A->B->A sequence counts 3: the session really crossed two swaps).
  std::uint64_t epochs_seen = 0;
};

/// "# serving n=... epoch=... strategy=... shards=... eps=..." — the
/// greeting every session (stdin REPL or socket connection) opens with.
void WriteServingBanner(SessionWriter& writer, const Snapshot& snapshot);

/// Shared command executor: every way a session reaches the server —
/// blocking REPL, scripted file, or a non-blocking socket state machine
/// — funnels through one of these. It owns the session's EpochManager
/// subscription (so concurrent sessions each see every completed replan
/// exactly once) and the per-session counters. The text entry points
/// (Execute / PollAndReport) render through the SessionWriter; the
/// binary frame path uses the raw entry points (AnswerBatch / StatsText
/// / PollAndTake) and encodes the same data itself.
///
/// When `session_write_errors` is set, the `stats` reply appends
/// " write_errors=N" with its value: the socket transport binds it to
/// the connection, so a client can ask whether any of its answers were
/// lost to a failed flush. Stdin and file sessions leave it unset.
class SessionExecutor {
 public:
  SessionExecutor(
      SessionWriter& writer, QueryService& service, EpochManager& manager,
      std::function<std::uint64_t()> session_write_errors = nullptr);

  SessionSummary& summary() { return summary_; }

  /// Label reported as `protocol=` in the stats reply ("text" default;
  /// the transport sets "binary" after a successful negotiation).
  void set_protocol(const char* protocol) { protocol_ = protocol; }
  const char* protocol() const { return protocol_; }

  /// Answers a contiguous run of ranges (a coalesced script segment or a
  /// single command's ranges) as one batch and prints the answer lines.
  /// An out-of-domain range (or answering before the first publish) is
  /// a Status — reported as a session error line, never an abort — and
  /// prints no answers.
  Status AnswerRun(const Interval* ranges, std::size_t count);

  /// Executes one control or query command interactively. Returns a
  /// non-OK status only for errors (the caller decides whether they are
  /// fatal); kQuit is handled by the caller.
  Status Execute(const SessionCommand& command, bool interactive);

  /// Fires due triggers and announces any replans completed since the
  /// last call (including asynchronous ones from earlier commands).
  void PollAndReport();

  // ---- raw (writer-free) entry points for the binary frame path ----

  /// Answers `count` ranges as one single-epoch batch into `answers`
  /// (resized to `count`), updating every per-session counter exactly as
  /// a `qb` command would. Returns the batch's epoch, or a Status for an
  /// out-of-domain range / missing publish (the transport encodes it as
  /// an error frame; counters are untouched on failure).
  Result<std::uint64_t> AnswerBatch(const Interval* ranges, std::size_t count,
                                    std::vector<double>* answers);

  /// The body of the `stats` reply (no leading "# ").
  std::string StatsText();

  /// Manual replan with this session as the reporter: its own queue is
  /// skipped by the broadcast, the outcome comes back here to encode.
  Result<ReplanOutcome> ManualReplan();

  /// Fires due triggers, then drains this session's announcement queue
  /// (oldest first) without writing anything.
  std::vector<ReplanOutcome> PollAndTake();

  /// Drains the queue without polling — the notifier-wakeup path, where
  /// the trigger already ran on another thread.
  std::vector<ReplanOutcome> TakeAnnouncements();

  /// The comment text for a non-republished outcome (drift kept /
  /// failed lifecycle replan) — one wording shared by the text writer
  /// path and the binary NOTE frame.
  static std::string OutcomeComment(const ReplanOutcome& outcome);

 private:
  void ReportOutcome(const ReplanOutcome& outcome);
  /// The one answering call behind AnswerRun, `qb` and AnswerBatch:
  /// answers `count` ranges into `answers` (resized) through
  /// TryQueryBatch and, on success, folds the batch into the query and
  /// epoch counters. Returns the batch's epoch.
  Result<std::uint64_t> AnswerInto(const Interval* ranges, std::size_t count,
                                   std::vector<double>* answers);
  /// Folds an answered batch's epoch into epochs_seen/last_epoch.
  void NoteAnswerEpoch(std::uint64_t epoch);

  SessionWriter& writer_;
  QueryService& service_;
  EpochManager& manager_;
  EpochSubscription subscription_;
  std::function<std::uint64_t()> session_write_errors_;
  const char* protocol_ = "text";
  std::uint64_t last_answer_epoch_ = 0;  // 0 = nothing answered yet
  SessionSummary summary_;
  std::vector<double> answers_;  // reused across commands
};

/// Interactive session: reads commands from `in` until quit/EOF.
/// Requires a published snapshot (PublishInitial first). The session
/// holds its own EpochManager subscription, so any number of concurrent
/// sessions may share one service + manager.
Result<SessionSummary> RunStreamingSession(std::istream& in,
                                           SessionWriter& writer,
                                           QueryService& service,
                                           EpochManager& manager);

/// Scripted session: executes `script` (see ReadSessionScript), failing
/// on the first command error. Requires a published snapshot.
Result<SessionSummary> RunScriptedSession(
    const std::vector<SessionCommand>& script, SessionWriter& writer,
    QueryService& service, EpochManager& manager);

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_SERVING_LOOP_H_
