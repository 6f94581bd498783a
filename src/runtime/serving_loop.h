// The serving runtime's command loop: one executor for every way a
// session reaches the server.
//
// Every text line, from the stdin REPL or a socket connection, goes
// through SessionExecutor::ExecuteLine: parsed by ParseSessionLine,
// executed, then the EpochManager is polled (which is what lets the
// every-N and drift triggers fire mid-session) and its outcome log is
// read from the session's cursor (which announces completed replans as
// "# planned ..." lines). A malformed line is
// reported as "error: ..." and survived. RunStreamingSession is a
// getline loop over it; the non-blocking socket state machines call it
// from their readiness loop for each complete line.
//
// RunScriptedSession drives a script read whole by ReadSessionScript
// (the `serve --queries FILE` path): a walk over its steps, each
// answered straight from the script's one range array. A run of
// single-range lines is one step, so it is answered as one batch, and
// any error aborts the script — the strictness workload files always
// had.
//
// Every path answers through the same QueryService calls and reports
// through the same SessionWriter formats, so a transcript from one mode
// reads like the other.

#ifndef DPHIST_RUNTIME_SERVING_LOOP_H_
#define DPHIST_RUNTIME_SERVING_LOOP_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
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
/// — funnels through one of these. It owns the session's cursor into
/// the EpochManager's outcome log (so concurrent sessions each see every
/// completed replan exactly once) and the per-session counters. The
/// cursor starts at the newest outcome logged when the executor is
/// built; only later outcomes are announced. The text entry points
/// (ExecuteLine / Execute / PollAndReport) render through the
/// SessionWriter; the binary frame path uses the raw entry points
/// (AnswerBatch / StatsText / PollAndTake) and encodes the same data
/// itself.
///
/// When `session_write_errors` is set, the `stats` reply appends
/// " write_errors=N" with its value: the socket transport binds it to
/// the connection, so a client can ask whether any of its answers were
/// lost to a failed flush. Stdin and file sessions leave it unset.
class SessionExecutor {
 public:
  /// Text lines are validated against the domain of the service's
  /// current snapshot; construct after the first publish.
  SessionExecutor(
      SessionWriter& writer, QueryService& service, EpochManager& manager,
      std::function<std::uint64_t()> session_write_errors = nullptr);

  SessionSummary& summary() { return summary_; }

  /// Label reported as `protocol=` in the stats reply ("text" default;
  /// the transport sets "binary" after a successful negotiation).
  void set_protocol(const char* protocol) { protocol_ = protocol; }
  const char* protocol() const { return protocol_; }

  /// Runs one text line (no trailing newline), the REPL's and the
  /// socket text protocol's one entry point: parses it (`line_number`,
  /// 1-based, names it in diagnostics), polls the triggers, executes it
  /// interactively, and reports a failure as "error: ..." and keeps
  /// serving; flushing is the caller's. A blank or comment line and
  /// `quit` poll nothing. Returns false on `quit`, which the caller ends
  /// the session on.
  bool ExecuteLine(std::string_view line, std::int64_t line_number);

  /// Executes one command over `ranges`. kQuery answers them all as one
  /// batch and prints the answer lines (a scripted run of single-range
  /// lines arrives as one call); kBatch does the same as a `qb` batch,
  /// counted in `batches` and, when `interactive`, followed by its
  /// "# batch" receipt; kStats and kReplan report; kQuit does nothing.
  /// An out-of-domain range (or answering before the first publish) is
  /// a Status and prints no answers; the caller decides whether it is
  /// fatal.
  Status Execute(SessionVerb verb, std::span<const Interval> ranges,
                 bool interactive);

  /// Fires due triggers and announces any replans completed since the
  /// last take. Sessions call it before each command, never after one,
  /// so a session's last command fires no trigger.
  void PollAndReport();

  /// Announces the replans completed since the last take without
  /// firing any trigger: how a session ends after its last command.
  void ReportAnnouncements();

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

  /// Manual replan with this session as the reporter: the outcome comes
  /// back here to encode, and the log read skips its sequence number.
  /// Take the announcements before the next ManualReplan.
  Result<ReplanOutcome> ManualReplan();

  /// Fires due triggers, then takes the outcomes logged since the last
  /// take (oldest first) without writing anything.
  std::vector<ReplanOutcome> PollAndTake();

  /// Takes them without polling — the notifier-wakeup path, where the
  /// trigger already ran on another thread. When nothing is new this is
  /// one atomic load; only news takes the manager's lock.
  std::vector<ReplanOutcome> TakeAnnouncements();

  /// Writes one outcome through the SessionWriter: a "# planned ..."
  /// line (counted in replans_reported) for a republish, the
  /// OutcomeComment otherwise. The socket transport's text connections
  /// report pushed announcements through it too.
  void ReportOutcome(const ReplanOutcome& outcome);

  /// The comment text for a non-republished outcome (drift kept /
  /// failed lifecycle replan) — one wording shared by the text writer
  /// path and the binary NOTE frame.
  static std::string OutcomeComment(const ReplanOutcome& outcome);

 private:
  /// The one answering call behind Execute and AnswerBatch:
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
  /// Sequence number of the newest logged outcome this session has
  /// taken, and of its own last manual replan (reported directly).
  std::uint64_t cursor_;
  std::uint64_t own_replan_ = 0;
  std::function<std::uint64_t()> session_write_errors_;
  const char* protocol_ = "text";
  std::uint64_t last_answer_epoch_ = 0;  // 0 = nothing answered yet
  std::int64_t domain_size_ = 0;  // of the snapshot at construction
  SessionSummary summary_;
  SessionCommand command_;       // ExecuteLine's, reused across lines
  std::vector<double> answers_;  // reused across commands
};

/// Interactive session: runs the lines of `in` through ExecuteLine until
/// quit/EOF, flushing the writer whenever `in` has no more input
/// buffered (so a REPL line is answered before the next read blocks,
/// and a piped workload is written in large chunks; a stream synced
/// with stdio never reports buffered input, so every line flushes).
/// `in` is untied for the session, so a tied output is not flushed
/// before every line, and its tie is restored before returning. A
/// partial line left buffered holds back the answers to the lines
/// before it until that line completes or the input ends.
/// Requires a published snapshot (PublishInitial first). The
/// session reads the outcome log by its own cursor, so any number of
/// concurrent sessions may share one service + manager.
Result<SessionSummary> RunStreamingSession(std::istream& in,
                                           SessionWriter& writer,
                                           QueryService& service,
                                           EpochManager& manager);

/// Scripted session: executes the steps of `script` (see
/// ReadSessionScript) in order, polling before each, and fails on the
/// first command error. Requires a published snapshot.
Result<SessionSummary> RunScriptedSession(const SessionScript& script,
                                          SessionWriter& writer,
                                          QueryService& service,
                                          EpochManager& manager);

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_SERVING_LOOP_H_
