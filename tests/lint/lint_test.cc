// Self-tests for dphist_lint (tools/lint/): every rule has a must-fail
// and a must-pass fixture under tests/lint/fixtures/ (lint *inputs*,
// never compiled), and the checked-in tree has no finding at all.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/lint.h"

namespace dphist::lint {
namespace {

std::string RepoPath(const std::string& rel) {
  return std::string(DPHIST_SOURCE_DIR) + "/" + rel;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> LintFixture(const std::string& fixture,
                                 const std::string& as_path) {
  const std::string content =
      ReadFile(RepoPath("tests/lint/fixtures/" + fixture));
  return LintSource(as_path, content);
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

struct FixtureCase {
  const char* fixture;
  const char* as_path;
  const char* rule;
  int min_findings;
};

TEST(LintFixtures, MustFailFixturesAreFlagged) {
  const FixtureCase cases[] = {
      {"must_fail/serving_check.cc", "src/service/handler.cc",
       "serving-check", 2},
      {"must_fail/hot_alloc.cc", "src/engine/kernels.cc", "hot-alloc", 3},
      {"must_fail/mutex_guard.h", "src/service/cache.h", "mutex-guard", 2},
      {"must_fail/factory_status.h", "src/service/widget.h",
       "factory-status", 1},
      {"must_fail/tsa_optout.cc", "src/runtime/loop.cc", "tsa-optout", 1},
      {"must_fail/paper_include.cc", "src/planner/oracle.cc",
       "paper-include", 1},
  };
  for (const FixtureCase& c : cases) {
    SCOPED_TRACE(c.fixture);
    const std::vector<Finding> findings = LintFixture(c.fixture, c.as_path);
    EXPECT_GE(static_cast<int>(findings.size()), c.min_findings);
    EXPECT_TRUE(HasRule(findings, c.rule));
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, c.rule) << "unexpected cross-rule noise";
      EXPECT_EQ(f.file, c.as_path);
      EXPECT_GT(f.line, 0);
      EXPECT_FALSE(f.snippet.empty());
    }
  }
}

TEST(LintFixtures, MustPassFixturesAreClean) {
  const FixtureCase cases[] = {
      {"must_pass/serving_clean.cc", "src/service/handler.cc", "", 0},
      {"must_pass/hot_alloc_clean.cc", "src/engine/kernels.cc", "", 0},
      {"must_pass/mutex_guard_clean.h", "src/service/cache.h", "", 0},
      {"must_pass/factory_status_clean.h", "src/service/widget.h", "", 0},
      {"must_pass/allow_marker.cc", "src/common/worker.cc", "", 0},
      {"must_pass/comments_only.cc", "src/service/notes.cc", "", 0},
      {"must_pass/paper_include_clean.cc", "src/paper/experiments/sweep.cc",
       "", 0},
  };
  for (const FixtureCase& c : cases) {
    SCOPED_TRACE(c.fixture);
    const std::vector<Finding> findings = LintFixture(c.fixture, c.as_path);
    EXPECT_TRUE(findings.empty())
        << findings.size() << " unexpected finding(s), first: "
        << (findings.empty() ? "" : findings[0].rule + " at line " +
                                        std::to_string(findings[0].line));
  }
}

TEST(LintRules, ServingRulesOnlyApplyToServingDirs) {
  // The same assert-heavy content is fine outside the serving dirs
  // (library preconditions use DPHIST_CHECK by design).
  const std::vector<Finding> findings =
      LintFixture("must_fail/serving_check.cc", "src/tree/layout.cc");
  EXPECT_FALSE(HasRule(findings, "serving-check"));
}

TEST(LintRules, PaperIncludeAppliesOnlyToCoreSources) {
  // The same include is fine inside src/paper/ and outside src/ (tools,
  // tests and bench link dphist_paper on purpose).
  EXPECT_TRUE(LintFixture("must_fail/paper_include.cc",
                          "src/paper/analysis/oracle.cc")
                  .empty());
  EXPECT_TRUE(
      LintFixture("must_fail/paper_include.cc", "tools/cli.cc").empty());
}

TEST(LintRules, HotAllocOnlyAppliesToDeclaredHotFiles) {
  const std::vector<Finding> findings =
      LintFixture("must_fail/hot_alloc.cc", "src/engine/other.cc");
  EXPECT_FALSE(HasRule(findings, "hot-alloc"));
}

TEST(LintRules, MutexWrapperHeaderIsExempt) {
  // common/mutex.h legitimately contains the raw std::mutex it wraps.
  const std::string content = ReadFile(RepoPath("src/common/mutex.h"));
  const std::vector<Finding> findings =
      LintSource("src/common/mutex.h", content);
  EXPECT_TRUE(findings.empty());
}

TEST(LintTreeCheck, CheckedInTreeHasNoFindings) {
  // The same gate CI runs: any finding fails. A site that must keep a
  // CHECK says why in its `dphist-lint: allow(<rule>)` comment.
  Report report;
  std::string error;
  ASSERT_TRUE(LintTree(DPHIST_SOURCE_DIR, &report, &error)) << error;
  EXPECT_GT(report.files_scanned, 100u);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << "lint finding: " << f.file << ":" << f.line << " ["
                  << f.rule << "] " << f.message;
  }
}

TEST(LintFormat, TablesListEveryRule) {
  Report report;
  report.files_scanned = 7;
  const std::string text = FormatTable(report);
  const std::string md = FormatMarkdownTable(report);
  for (const std::string& rule : RuleNames()) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
    EXPECT_NE(md.find("`" + rule + "`"), std::string::npos) << rule;
  }
  EXPECT_NE(md.find("| --- |"), std::string::npos);
}

}  // namespace
}  // namespace dphist::lint
