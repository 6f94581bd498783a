// Implementations behind the dphist command-line tool. Kept as a library
// so every command is unit-testable; tools/dphist_cli.cc is a thin main.
//
// Commands:
//   generate          synthesize a dataset to CSV
//   release-universal publish an epsilon-DP universal histogram (H-bar)
//   release-sorted    publish an epsilon-DP unattributed histogram (S-bar)
//   query             answer a range count from a published histogram
//   serve             long-lived serving runtime (src/runtime/): publish
//                     a QueryService snapshot and answer a workload file,
//                     or --stdin for a streaming REPL, or --listen for
//                     network sessions;
//                     --strategy auto lets the planner pick and
//                     --replan-every/--replan-drift let the EpochManager
//                     republish as observed traffic shifts
//   client            drive one session against `serve --listen` and
//                     print its transcript (text or binary protocol)
//   plan              cost every (strategy, shards) candidate against a
//                     workload and print the variance-minimizing plan
//                     (src/planner/)
//   recover           replay a `serve --state-dir` directory offline
//
// The repo linter is its own binary, tools/lint/lint_main.cc.

#ifndef DPHIST_TOOLS_CLI_COMMANDS_H_
#define DPHIST_TOOLS_CLI_COMMANDS_H_

#include <iosfwd>

#include "common/flags.h"
#include "common/status.h"

namespace dphist::cli {

/// `generate --dataset nettrace|social|searchlogs --output PATH
///  [--size N] [--seed S]`
Status RunGenerate(const Flags& flags, std::ostream& out);

/// `release-universal --input PATH --output PATH --epsilon E
///  [--branching K] [--no-prune] [--no-round] [--seed S]`
/// Writes the H-bar per-position estimates as a histogram CSV.
Status RunReleaseUniversal(const Flags& flags, std::ostream& out);

/// `release-sorted --input PATH --output PATH --epsilon E [--seed S]`
/// Writes the S-bar estimate of the sorted (unattributed) histogram.
Status RunReleaseSorted(const Flags& flags, std::ostream& out);

/// `query --release PATH --lo X --hi Y`
/// Sums the published per-position estimates over [lo, hi].
Status RunQuery(const Flags& flags, std::ostream& out);

/// `serve --input PATH --epsilon E (--queries PATH | --stdin |
///  --listen PORT) [--strategy hbar|htilde|ltilde|wavelet|auto]
///  [--branching K] [--shards S] [--build-threads B] [--seed S]
///  [--no-round] [--no-prune] [--max-shards M] [--strategies a,b,c]
///  [--replan-every N] [--replan-drift X] [--replan-sync]
///  [--epsilon-budget B] [--state-dir D] (+ --listen's --max-sessions,
///  --port-file, --workers, --bind-addr, --auth-token)`
/// The serving runtime. With --queries it publishes one snapshot and
/// answers the session script (one answer per line, input order, each
/// run of single-range lines as one batch) followed by a `# served ...`
/// stats line — the classic batch mode, now a thin driver over
/// src/runtime/. With --stdin it serves a streaming session from
/// standard input (`q lo hi`, `qb k ...`, `stats`, `replan`, `quit` —
/// see runtime/session.h).
/// Either way the EpochManager can republish mid-session: every N
/// observed queries, on predicted-MSE drift (checked every 256
/// queries), or on the `replan` command — each republish spends a fresh
/// epsilon and is announced as a `# planned strategy=...` line. The
/// `# served N queries from epoch E (...)` line names the epoch of the
/// last answered batch and describes the current release; when a
/// replan followed that batch, the description opens `now epoch E':`.
Status RunServe(const Flags& flags, std::istream& in, std::ostream& out);

/// `client --port P [--host A] [--auth-token T] [--binary]
///  [--queries PATH]`
/// Drives one session against a `serve --listen` server and prints the
/// transcript. Commands come from --queries or stdin (same grammar as
/// the REPL); a missing `quit` is appended. --binary negotiates the
/// length-prefixed frame protocol, pipelines every request in one
/// flush, and renders replies/pushes through the SessionWriter a text
/// session writes with — so the two protocols' outputs can be diffed
/// directly.
Status RunClient(const Flags& flags, std::istream& in, std::ostream& out);

/// `plan --queries PATH --epsilon E (--input PATH | --domain N)
///  [--branching K] [--max-shards M] [--strategies a,b,c]`
/// Costs every candidate (strategy, shard count) against the workload
/// file's length profile and prints the full evaluation table plus the
/// plan with the least mean variance. Purely analytical: reads no private data beyond the
/// domain size, draws no noise.
Status RunPlan(const Flags& flags, std::ostream& out);

/// `recover --state-dir DIR [--inspect]`
/// Offline replay of a `serve --state-dir` directory: refolds the WAL
/// ledger exactly as a restarting server would and reports the epsilon
/// total, last swapped epoch, torn-tail flag, and the persisted
/// snapshot's identity. --inspect additionally lists every spend record.
/// Reads no private data and mutates nothing beyond truncating a torn
/// WAL tail (the same repair a restart performs).
Status RunRecover(const Flags& flags, std::ostream& out);

/// Dispatches on the first positional argument. Prints the usage text
/// after an unknown command, an unknown flag or a missing required flag,
/// and only the one-line error otherwise.
/// Returns a process exit code. `in` feeds `serve --stdin`.
int Main(int argc, const char* const* argv, std::istream& in,
         std::ostream& out, std::ostream& err);

/// Convenience overload reading from std::cin.
int Main(int argc, const char* const* argv, std::ostream& out,
         std::ostream& err);

}  // namespace dphist::cli

#endif  // DPHIST_TOOLS_CLI_COMMANDS_H_
