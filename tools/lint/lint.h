// dphist_lint: repo-specific invariant checker.
//
// A deliberately small token/line-level linter (no libclang, no build
// dependency) that enforces the contracts this codebase promises but a
// compiler cannot check by itself:
//
//   serving-check   DPHIST_CHECK / DPHIST_DCHECK / abort() are banned in
//                   the serving directories (src/service, src/runtime,
//                   src/engine, src/storage): a malformed request must
//                   surface as a Status, never kill the server.
//   hot-alloc       naked new / malloc / container growth (push_back,
//                   resize, reserve, ...) are banned in declared hot
//                   files (src/engine/kernels.cc by default): the batch
//                   kernels are contractually allocation-free.
//   mutex-guard     raw std::mutex is banned outside common/mutex.h
//                   (it cannot carry capability annotations), and every
//                   dphist::Mutex member declaration must have at least
//                   one DPHIST_GUARDED_BY(name) sibling in the same
//                   file — an unguarded mutex guards nothing.
//   factory-status  every `static ... Create*(...)` factory must return
//                   Status or Result<T>; fallible construction must not
//                   lose its error.
//   tsa-optout      DPHIST_NO_THREAD_SAFETY_ANALYSIS is banned in the
//                   serving directories; use a documented
//                   DPHIST_ASSERT_CAPABILITY escape instead.
//   paper-include   no source under src/ outside src/paper/ (dphist_core)
//                   may include a src/paper/ header (dphist_paper): the
//                   server must not link paper-only code. Fixed by the
//                   directory layout, so it has no config key.
//
// Suppression: a line (or the line directly above it) containing
// `dphist-lint: allow(<rule>)` exempts that line from <rule>, for cases
// the checker's approximations cannot see (e.g. a function-local mutex,
// which GUARDED_BY cannot apply to).
//
// Baseline ratchet: pre-existing findings live in a checked-in baseline
// file, keyed by (rule, file, normalized line text) so they survive
// line-number drift. A finding in the baseline is suppressed; a finding
// not in the baseline fails the run; a baseline entry that no longer
// matches anything is *stale* and also fails the run — debt may only
// shrink. Regenerate with `dphist_lint --write-baseline` after paying
// debt down.

#ifndef DPHIST_TOOLS_LINT_LINT_H_
#define DPHIST_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace dphist {
namespace lint {

/// Identifiers of every rule, in report order.
std::vector<std::string> RuleNames();

/// One rule violation at a specific line.
struct Finding {
  std::string rule;
  std::string file;  // repo-relative, forward slashes
  int line = 0;      // 1-based
  std::string snippet;  // trimmed source line
  std::string message;

  /// Baseline key: line-number independent so the ratchet survives
  /// unrelated edits above the finding.
  std::string Key() const { return rule + "|" + file + "|" + snippet; }
};

/// What the checker enforces and where. Defaults match the repo layout;
/// a config file can override any list.
struct Config {
  /// Directory prefixes (repo-relative, trailing slash) where
  /// serving-check and tsa-optout apply.
  std::vector<std::string> serving_dirs = {
      "src/service/", "src/runtime/", "src/engine/", "src/storage/"};
  /// Files (repo-relative) where hot-alloc applies.
  std::vector<std::string> hot_files = {"src/engine/kernels.cc"};
  /// Baseline file path, repo-relative.
  std::string baseline = "tools/lint/lint_baseline.txt";
};

/// Parses a config file: `key = value` lines, `#` comments, commas
/// separating list items. Unknown keys are an error (typos must not
/// silently disable a rule). Returns false and fills *error on failure.
bool LoadConfig(const std::string& path, Config* config, std::string* error);

/// Runs every rule over one file's contents. `rel_path` selects which
/// rules apply (serving dir? hot file?).
std::vector<Finding> LintSource(const std::string& rel_path,
                                const std::string& content,
                                const Config& config);

/// Lints every .h/.cc under root/src, in sorted path order. Returns
/// false and fills *error if the tree cannot be read. `files_scanned`
/// (optional) receives the number of files visited.
bool LintTree(const std::string& root, const Config& config,
              std::vector<Finding>* findings, std::string* error,
              std::size_t* files_scanned = nullptr);

/// Result of subtracting the baseline from a finding list.
struct Report {
  std::vector<Finding> fresh;       // new findings: fail the run
  std::vector<Finding> suppressed;  // matched a baseline entry
  std::vector<std::string> stale;   // baseline keys matching nothing: fail
  /// files scanned, for the summary table
  std::size_t files_scanned = 0;
};

/// Loads baseline keys (one per line, `#` comments). A missing file is
/// an empty baseline (returns true).
bool LoadBaseline(const std::string& path, std::vector<std::string>* keys,
                  std::string* error);

/// Splits findings into fresh/suppressed against the baseline keys and
/// records which keys went stale. Each baseline line suppresses at most
/// one finding (multiplicity counts).
Report ApplyBaseline(const std::vector<Finding>& findings,
                     const std::vector<std::string>& baseline_keys);

/// Serializes findings as baseline lines (sorted, with a header).
std::string FormatBaseline(const std::vector<Finding>& findings);

/// Plain-text per-rule count table (fresh / suppressed columns).
std::string FormatTable(const Report& report);

/// GitHub-flavored markdown version of the same table, for CI job
/// summaries ($GITHUB_STEP_SUMMARY).
std::string FormatMarkdownTable(const Report& report);

}  // namespace lint
}  // namespace dphist

#endif  // DPHIST_TOOLS_LINT_LINT_H_
