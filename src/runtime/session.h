// Streaming session line protocol for the serving runtime.
//
// One grammar powers every way queries reach a long-lived server —
// `dphist serve --stdin` (interactive REPL), a socket connection's text
// protocol, the workload files `serve --queries` answers and the ones
// `plan --queries` profiles. A session is a sequence of
// newline-terminated commands:
//
//   lo hi                answer one range (bare workload-file form;
//                        commas work: "lo,hi")
//   q lo hi              same, explicit verb
//   qb k lo hi lo hi ... answer k ranges as ONE batch: all k are served
//                        against the single snapshot current at the
//                        batch's start (one epoch, one release)
//   stats                report serving counters as a "# stats ..." line
//   replan               force a synchronous replan + republish (spends
//                        a fresh epsilon)
//   quit                 end the session (EOF is an implicit quit)
//   # anything           comment, ignored; blank lines are ignored
//
// ParseSessionLine parses one line with line-numbered errors;
// ReadSessionScript parses a whole file into one range array and a list
// of steps over it. SessionWriter owns the answer and "# ..." report
// formatting shared by the REPL, scripted sessions and the socket
// transport, so transcripts from every mode look alike.

#ifndef DPHIST_RUNTIME_SESSION_H_
#define DPHIST_RUNTIME_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "domain/interval.h"

namespace dphist::runtime {

/// What a session line asks the server to do.
enum class SessionVerb {
  kQuery,   // one range (bare "lo hi" or "q lo hi")
  kBatch,   // "qb k ..." — k ranges answered as one single-epoch batch
  kStats,   // "stats"
  kReplan,  // "replan"
  kQuit,    // "quit" or end of stream
};

/// One parsed command.
struct SessionCommand {
  SessionVerb verb = SessionVerb::kQuit;
  /// kQuery: exactly one range; kBatch: the k ranges; empty otherwise.
  std::vector<Interval> ranges;
};

/// Parses one already-extracted line (no trailing newline) as a session
/// command. The non-blocking transport uses this directly: its readiness
/// loop splits its receive buffer on '\n' and never owns an istream.
/// Returns false when the line carries no command (blank or comment) and
/// leaves `out` untouched; true fills `out`, reusing its `ranges`
/// capacity, so a caller that keeps one SessionCommand across lines
/// parses warm lines without allocating. A malformed line is a Status
/// naming `line_number` (1-based), "query line N: ..." as the workload
/// files have always reported it; `out` then holds whatever parsed
/// before the error.
///
/// The line is scanned in place with the field rules of `std::istream
/// >>` in the "C" locale: space, '\t' to '\r' and ',' separate fields;
/// an integer is one optional '+' or '-' followed by decimal digits and
/// ends at the first byte that cannot continue it; no digits, or a value
/// outside int64, fails the field. A line of only spaces, tabs, '\r' and
/// commas is blank; one whose first other byte is '#' is a comment.
/// Ranges are stored as they parse, so a `qb` count reserves nothing by
/// itself.
Result<bool> ParseSessionLine(std::string_view line,
                              std::int64_t domain_size,
                              std::int64_t line_number, SessionCommand* out);

/// Largest `qb` batch a session line may carry; a cap, not a target — it
/// only exists so a malformed count cannot ask the server to reserve
/// gigabytes.
inline constexpr std::int64_t kMaxSessionBatch = 1 << 20;

/// One step of a script: `count` ranges of the script's array from
/// `first` on (none for stats/replan).
struct SessionStep {
  SessionVerb verb = SessionVerb::kQuit;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// A whole session file, parsed once: every range in file order, and
/// the steps that answer them. Consecutive single-range lines merge into
/// one kQuery step, answered as one batch; comments and blank lines do
/// not split a run, any other command does. A `qb` line is a kBatch step
/// of its own.
struct SessionScript {
  std::vector<Interval> ranges;
  std::vector<SessionStep> steps;
};

/// Reads a session file up to `quit` or EOF (the `serve --queries` and
/// `plan --queries` path), failing on the first malformed line.
/// Control commands (stats/replan) are legal in files too.
Result<SessionScript> ReadSessionScript(std::istream& in,
                                        std::int64_t domain_size);

/// Appends one answer line ("%.15g" + '\n') to `out`, byte-identical to
/// std::to_chars(general, 15) and so to the ostream formatting the
/// transcripts have always used. An integral value below 1e15 in
/// magnitude (every count Section 5.2 rounding serves), other than -0.0,
/// goes through integer std::to_chars: "%.15g" prints exactly its
/// digits. SessionWriter::Answers writes every transcript's answers
/// through it, the binary client's included.
void AppendAnswerLine(double value, std::string* out);

/// Formats session output: answer lines at full precision plus the
/// "# ..." report lines both serving modes share. Every call renders
/// into a string with std::to_chars, never through stream formatting:
/// the string form appends to the caller's string (the socket
/// transport's connection buffer); the stream form renders into one
/// reusable buffer and writes it to the stream before the call returns,
/// so output interleaves with the caller's own stream writes.
class SessionWriter {
 public:
  explicit SessionWriter(std::ostream& out)
      : stream_(&out), text_(&buffer_) {}
  /// Appends everything to `*out`, which must outlive the writer.
  explicit SessionWriter(std::string* out) : text_(out) {}

  SessionWriter(const SessionWriter&) = delete;
  SessionWriter& operator=(const SessionWriter&) = delete;

  /// One answer per line, 15 significant digits (round-trips every
  /// integral count a double holds exactly); see AppendAnswerLine.
  void Answers(const double* values, std::size_t count);

  /// "# batch n=K epoch=E" — the single-epoch receipt after a `qb`.
  void BatchReceipt(std::size_t count, std::uint64_t epoch);

  /// "# planned strategy=S shards=K epoch=E reason=R
  ///  predicted_mean_var=V" — emitted whenever a (re)plan publishes.
  /// The server passes its plan's fields, the binary client a PLAN
  /// frame's.
  void PlanNote(std::string_view strategy, std::int64_t shards,
                std::uint64_t epoch, std::string_view reason,
                double predicted_mean_var);

  /// "# served N queries from epoch E" — a socket session's receipt.
  void ServedReceipt(std::uint64_t queries, std::uint64_t epoch);

  /// "# <text>"
  void Comment(const std::string& text);

  /// "error: <message>" — interactive sessions keep serving after this.
  void Error(std::string_view message);

  /// Flushes the stream form's stream; the string form has nothing
  /// buffered.
  void Flush();

 private:
  /// The stream form writes what the call rendered and empties the
  /// buffer; the string form has nothing to do.
  void WriteThrough();

  std::ostream* stream_ = nullptr;  // null in the string form
  /// The stream form's render buffer, reused across calls: steady-state
  /// batches allocate nothing.
  std::string buffer_;
  std::string* text_;  // where calls render: the caller's string or buffer_
};

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_SESSION_H_
