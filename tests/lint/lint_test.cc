// Self-tests for dphist_lint (tools/lint/): every rule has a must-fail
// and a must-pass fixture under tests/lint/fixtures/ (lint *inputs*,
// never compiled), the baseline implements ratchet semantics, and the
// checked-in tree is clean against the committed baseline.

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
  return LintSource(as_path, content, Config());
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
        << (findings.empty() ? "" : findings[0].Key());
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
      LintSource("src/common/mutex.h", content, Config());
  EXPECT_TRUE(findings.empty());
}

TEST(LintBaseline, SuppressesExactlyTheListedFindings) {
  const std::vector<Finding> findings =
      LintFixture("must_fail/serving_check.cc", "src/service/handler.cc");
  ASSERT_GE(findings.size(), 2u);

  // Baseline one of the two findings: it is suppressed, the other is
  // fresh, nothing is stale.
  const Report report = ApplyBaseline(findings, {findings[0].Key()});
  EXPECT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.fresh.size(), findings.size() - 1);
  EXPECT_TRUE(report.stale.empty());
}

TEST(LintBaseline, StaleEntriesAreReportedForRatchet) {
  const std::vector<Finding> findings =
      LintFixture("must_pass/serving_clean.cc", "src/service/handler.cc");
  ASSERT_TRUE(findings.empty());

  // Debt that no longer exists must surface as stale — the ratchet:
  // the baseline may only shrink, so a paid-down entry fails the run
  // until it is removed.
  const Report report =
      ApplyBaseline(findings, {"serving-check|src/service/handler.cc|gone"});
  EXPECT_TRUE(report.fresh.empty());
  EXPECT_TRUE(report.suppressed.empty());
  ASSERT_EQ(report.stale.size(), 1u);
  EXPECT_EQ(report.stale[0], "serving-check|src/service/handler.cc|gone");
}

TEST(LintBaseline, EachEntrySuppressesOneFindingOnly) {
  // Two identical lines produce two findings with the same key; one
  // baseline line absorbs only one of them.
  const std::string content =
      "void Check() { DPHIST_CHECK(true); }\n"
      "void Check() { DPHIST_CHECK(true); }\n";
  std::vector<Finding> findings =
      LintSource("src/service/dup.cc", content, Config());
  ASSERT_EQ(findings.size(), 2u);
  ASSERT_EQ(findings[0].Key(), findings[1].Key());

  const Report report = ApplyBaseline(findings, {findings[0].Key()});
  EXPECT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.fresh.size(), 1u);
  EXPECT_TRUE(report.stale.empty());
}

TEST(LintBaseline, KeysSurviveLineNumberDrift) {
  const std::string before = "void A() { DPHIST_CHECK(true); }\n";
  const std::string after =  // an unrelated line added above
      "void Unrelated();\nvoid A() { DPHIST_CHECK(true); }\n";
  const std::vector<Finding> f1 =
      LintSource("src/service/drift.cc", before, Config());
  const std::vector<Finding> f2 =
      LintSource("src/service/drift.cc", after, Config());
  ASSERT_EQ(f1.size(), 1u);
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_NE(f1[0].line, f2[0].line);
  EXPECT_EQ(f1[0].Key(), f2[0].Key());
}

TEST(LintConfig, CommittedConfigLoads) {
  Config config;
  std::string error;
  ASSERT_TRUE(
      LoadConfig(RepoPath("tools/lint/dphist_lint.conf"), &config, &error))
      << error;
  EXPECT_EQ(config.serving_dirs.size(), 4u);
  EXPECT_EQ(config.hot_files.size(), 1u);
  EXPECT_EQ(config.hot_files[0], "src/engine/kernels.cc");
  EXPECT_EQ(config.baseline, "tools/lint/lint_baseline.txt");
}

TEST(LintConfig, UnknownKeyIsRejected) {
  Config config;
  std::string error;
  EXPECT_FALSE(LoadConfig(RepoPath("tests/lint/fixtures/config_bad.conf"),
                          &config, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
}

TEST(LintTreeCheck, CheckedInTreeIsCleanAgainstCommittedBaseline) {
  // The same gate CI runs: the committed baseline must cover every
  // finding (no fresh) and carry no stale entries (debt only shrinks).
  Config config;
  std::string error;
  ASSERT_TRUE(
      LoadConfig(RepoPath("tools/lint/dphist_lint.conf"), &config, &error))
      << error;
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  ASSERT_TRUE(LintTree(DPHIST_SOURCE_DIR, config, &findings, &error,
                       &files_scanned))
      << error;
  EXPECT_GT(files_scanned, 100u);

  std::vector<std::string> baseline;
  ASSERT_TRUE(
      LoadBaseline(RepoPath(config.baseline), &baseline, &error))
      << error;
  const Report report = ApplyBaseline(findings, baseline);
  for (const Finding& f : report.fresh) {
    ADD_FAILURE() << "fresh lint finding: " << f.file << ":" << f.line
                  << " [" << f.rule << "] " << f.message;
  }
  for (const std::string& key : report.stale) {
    ADD_FAILURE() << "stale baseline entry (remove it): " << key;
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

TEST(LintFormat, BaselineRoundTrips) {
  const std::vector<Finding> findings =
      LintFixture("must_fail/mutex_guard.h", "src/service/cache.h");
  ASSERT_FALSE(findings.empty());
  const std::string serialized = FormatBaseline(findings);

  // Parse it back through LoadBaseline semantics (skip comments).
  std::vector<std::string> keys;
  std::istringstream in(serialized);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.push_back(line);
  }
  const Report report = ApplyBaseline(findings, keys);
  EXPECT_TRUE(report.fresh.empty());
  EXPECT_TRUE(report.stale.empty());
  EXPECT_EQ(report.suppressed.size(), findings.size());
}

}  // namespace
}  // namespace dphist::lint
