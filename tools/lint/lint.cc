#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>

namespace dphist {
namespace lint {
namespace {

constexpr const char* kRules[] = {
    "serving-check", "hot-alloc", "mutex-guard", "factory-status",
    "tsa-optout",    "paper-include",
};

/// Where serving-check and tsa-optout apply: code here must degrade
/// gracefully (Status), never assert or abort on request data.
constexpr const char* kServingDirs[] = {
    "src/service/", "src/runtime/", "src/engine/", "src/storage/",
};

/// The file under the allocation-free contract (hot-alloc).
constexpr const char* kHotFile = "src/engine/kernels.cc";

std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `word` occurs in `s` with non-word characters (or the
/// string edge) on both sides.
bool ContainsWord(const std::string& s, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !IsWordChar(s[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool InServingDir(const std::string& rel_path) {
  return std::any_of(std::begin(kServingDirs), std::end(kServingDirs),
                     [&](const char* dir) { return HasPrefix(rel_path, dir); });
}

/// Splits `content` into raw lines (no trailing newline).
std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

/// Removes comments from each line: `//` tails and `/* ... */` regions
/// (tracked across lines). Token-level approximation — comment markers
/// inside string literals are treated as comments; no rule here matches
/// anything plausible inside a string, so the simplification is safe.
std::vector<std::string> StripComments(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block = false;
  for (const std::string& line : raw) {
    std::string code;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block = false;
          ++i;
        }
        continue;
      }
      if (line[i] == '/' && i + 1 < line.size()) {
        if (line[i + 1] == '/') break;  // rest of line is a comment
        if (line[i + 1] == '*') {
          in_block = true;
          ++i;
          continue;
        }
      }
      code += line[i];
    }
    out.push_back(code);
  }
  return out;
}

/// True when raw line `i` (or the line above it) carries a
/// `dphist-lint: allow(<rule>)` marker for this rule.
bool Allowed(const std::vector<std::string>& raw, std::size_t i,
             const std::string& rule) {
  const std::string marker = "dphist-lint: allow(" + rule + ")";
  if (Contains(raw[i], marker)) return true;
  return i > 0 && Contains(raw[i - 1], marker);
}

const std::regex& MutexDeclPattern() {
  // `Mutex name_;` member/variable declarations (optionally mutable
  // and/or namespace-qualified).
  static const std::regex re(
      R"(^\s*(?:mutable\s+)?(?:dphist::)?Mutex\s+([A-Za-z_]\w*)\s*;)");
  return re;
}

const std::regex& PaperIncludePattern() {
  // `#include "paper/..."` or `#include <paper/...>`.
  static const std::regex re(R"(^\s*#\s*include\s*["<]paper/)");
  return re;
}

const std::regex& FactoryPattern() {
  // `static <return-type> Create*(` — return type captured between.
  static const std::regex re(R"(\bstatic\b(.*?)\b(Create\w*)\s*\()");
  return re;
}

}  // namespace

std::vector<std::string> RuleNames() {
  return std::vector<std::string>(std::begin(kRules), std::end(kRules));
}

std::vector<Finding> LintSource(const std::string& rel_path,
                                const std::string& content) {
  std::vector<Finding> findings;
  const std::vector<std::string> raw = SplitLines(content);
  const std::vector<std::string> code = StripComments(raw);
  const bool serving = InServingDir(rel_path);
  const bool hot = rel_path == kHotFile;
  // src/paper/ is the whole boundary of dphist_paper; every other
  // source under src/ is dphist_core.
  const bool core =
      HasPrefix(rel_path, "src/") && !HasPrefix(rel_path, "src/paper/");
  // The annotation machinery itself is the one place raw std::mutex
  // legitimately appears.
  const bool mutex_exempt = rel_path == "src/common/mutex.h" ||
                            rel_path == "src/common/thread_annotations.h";

  auto add = [&](std::size_t i, const char* rule, std::string message) {
    if (Allowed(raw, i, rule)) return;
    Finding f;
    f.rule = rule;
    f.file = rel_path;
    f.line = static_cast<int>(i) + 1;
    f.snippet = Trim(code[i]);
    f.message = std::move(message);
    findings.push_back(std::move(f));
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    if (Trim(line).empty()) continue;

    if (serving) {
      if (Contains(line, "DPHIST_CHECK") || Contains(line, "DPHIST_DCHECK")) {
        add(i, "serving-check",
            "assertion on a serving path: return a Status instead of "
            "aborting the server");
      } else if (ContainsWord(line, "abort")) {
        add(i, "serving-check",
            "abort() on a serving path: return a Status instead of "
            "killing the server");
      }
      if (Contains(line, "DPHIST_NO_THREAD_SAFETY_ANALYSIS")) {
        add(i, "tsa-optout",
            "thread-safety analysis opt-out on a serving path: use a "
            "documented DPHIST_ASSERT_CAPABILITY escape instead");
      }
    }

    if (hot) {
      static const char* kGrowthCalls[] = {
          "push_back", "emplace_back", "resize", "reserve", "insert",
          "emplace",
      };
      if (ContainsWord(line, "new")) {
        add(i, "hot-alloc", "naked new in an allocation-free hot file");
      } else if (ContainsWord(line, "malloc") || ContainsWord(line, "calloc") ||
                 ContainsWord(line, "realloc")) {
        add(i, "hot-alloc", "malloc-family call in an allocation-free "
                            "hot file");
      } else {
        for (const char* call : kGrowthCalls) {
          if (ContainsWord(line, call) && Contains(line, "(")) {
            add(i, "hot-alloc",
                std::string("container growth (") + call +
                    ") in an allocation-free hot file");
            break;
          }
        }
      }
    }

    if (!mutex_exempt) {
      if (Contains(line, "std::mutex")) {
        add(i, "mutex-guard",
            "raw std::mutex cannot carry capability annotations: use "
            "dphist::Mutex (common/mutex.h)");
      }
      std::smatch m;
      if (std::regex_search(line, m, MutexDeclPattern())) {
        const std::string name = m[1].str();
        if (!Contains(content, "DPHIST_GUARDED_BY(" + name + ")")) {
          add(i, "mutex-guard",
              "mutex '" + name + "' has no DPHIST_GUARDED_BY(" + name +
                  ") sibling: an unguarded mutex guards nothing");
        }
      }
    }

    if (core && std::regex_search(line, PaperIncludePattern())) {
      add(i, "paper-include",
          "dphist_core includes a src/paper/ header: the server must "
          "not link paper-only code (move the code into core, or this "
          "file under src/paper/)");
    }

    {
      std::smatch m;
      if (std::regex_search(line, m, FactoryPattern())) {
        const std::string return_type = m[1].str();
        if (!Contains(return_type, "Result<") &&
            !Contains(return_type, "Status")) {
          add(i, "factory-status",
              "factory '" + m[2].str() +
                  "' must return Status or Result<T> so construction "
                  "failure is not lost");
        }
      }
    }
  }
  return findings;
}

bool LintTree(const std::string& root, Report* report, std::string* error) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    *error = "not a source tree (no src/ directory): " + root;
    return false;
  }
  std::vector<fs::path> files;
  for (fs::recursive_directory_iterator it(src, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      *error = "walking " + src.string() + ": " + ec.message();
      return false;
    }
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  report->files_scanned = files.size();
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      *error = "cannot read " + path.string();
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel =
        fs::relative(path, fs::path(root), ec).generic_string();
    std::vector<Finding> file_findings =
        LintSource(ec ? path.generic_string() : rel, buffer.str());
    report->findings.insert(report->findings.end(),
                            std::make_move_iterator(file_findings.begin()),
                            std::make_move_iterator(file_findings.end()));
  }
  return true;
}

namespace {

std::map<std::string, std::size_t> CountByRule(const Report& report) {
  std::map<std::string, std::size_t> counts;
  for (const std::string& rule : RuleNames()) counts[rule];  // stable rows
  for (const Finding& f : report.findings) ++counts[f.rule];
  return counts;
}

}  // namespace

std::string FormatTable(const Report& report) {
  std::ostringstream out;
  out << "rule             findings\n";
  for (const auto& [rule, count] : CountByRule(report)) {
    out << rule << std::string(rule.size() < 17 ? 17 - rule.size() : 1, ' ')
        << count << "\n";
  }
  out << "files scanned: " << report.files_scanned << "\n";
  return out.str();
}

std::string FormatMarkdownTable(const Report& report) {
  std::ostringstream out;
  out << "### dphist_lint\n\n"
         "| rule | findings |\n"
         "| --- | ---: |\n";
  for (const auto& [rule, count] : CountByRule(report)) {
    out << "| `" << rule << "` | " << count << " |\n";
  }
  out << "\nFiles scanned: " << report.files_scanned << "\n";
  return out.str();
}

}  // namespace lint
}  // namespace dphist
