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
//                   resize, reserve, ...) are banned in the hot file
//                   src/engine/kernels.cc: the batch kernels are
//                   contractually allocation-free.
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
//                   server must not link paper-only code.
//
// The directories and the hot file are fixed by the repo layout, so
// nothing is configured. The one exception mechanism is inline: a line
// (or the line directly above it) containing
// `dphist-lint: allow(<rule>)` exempts that line from <rule>, and the
// marker's comment states why — the invariant a CHECK guards, or what
// the checker's approximations cannot see (e.g. a function-local mutex,
// which GUARDED_BY cannot apply to). Any other finding fails the run.

#ifndef DPHIST_TOOLS_LINT_LINT_H_
#define DPHIST_TOOLS_LINT_LINT_H_

#include <cstddef>
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
};

/// Runs every rule over one file's contents. `rel_path` selects which
/// rules apply (serving dir? hot file? core source?).
std::vector<Finding> LintSource(const std::string& rel_path,
                                const std::string& content);

/// What a tree run found, for the per-rule tables.
struct Report {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
};

/// Lints every .h/.cc under root/src, in sorted path order, into
/// *report. Returns false and fills *error if the tree cannot be read.
bool LintTree(const std::string& root, Report* report, std::string* error);

/// Plain-text per-rule finding counts.
std::string FormatTable(const Report& report);

/// GitHub-flavored markdown version of the same table, for CI job
/// summaries ($GITHUB_STEP_SUMMARY).
std::string FormatMarkdownTable(const Report& report);

}  // namespace lint
}  // namespace dphist

#endif  // DPHIST_TOOLS_LINT_LINT_H_
