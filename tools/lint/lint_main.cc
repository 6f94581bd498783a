// dphist_lint command-line driver. See tools/lint/lint.h for the rules.
//
// Usage:
//   dphist_lint [--root DIR] [--summary-md FILE] [--list-rules]
//   dphist_lint --file PATH --as REL_PATH   (single file; REL_PATH
//               selects which rules apply — CI uses this to prove every
//               must-fail fixture still fails)
//
// Exit status: 0 when nothing is found; 1 on any finding; 2 on usage or
// I/O errors.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--summary-md FILE] [--list-rules]\n"
               "       "
            << argv0 << " --file PATH [--as REL_PATH]\n";
  return 2;
}

void PrintFindings(const std::vector<dphist::lint::Finding>& findings) {
  for (const dphist::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n    " << f.snippet << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string summary_md;
  std::string single_file;
  std::string as_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--summary-md") {
      summary_md = value("--summary-md");
    } else if (arg == "--file") {
      single_file = value("--file");
    } else if (arg == "--as") {
      as_path = value("--as");
    } else if (arg == "--list-rules") {
      for (const std::string& rule : dphist::lint::RuleNames()) {
        std::cout << rule << "\n";
      }
      return 0;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!single_file.empty()) {
    std::ifstream in(single_file, std::ios::binary);
    if (!in) {
      std::cerr << "dphist_lint: cannot read " << single_file << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel = as_path.empty() ? single_file : as_path;
    const std::vector<dphist::lint::Finding> findings =
        dphist::lint::LintSource(rel, buffer.str());
    PrintFindings(findings);
    std::cout << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
  }

  dphist::lint::Report report;
  std::string error;
  if (!dphist::lint::LintTree(root, &report, &error)) {
    std::cerr << "dphist_lint: " << error << "\n";
    return 2;
  }
  PrintFindings(report.findings);
  std::cout << dphist::lint::FormatTable(report);

  if (!summary_md.empty()) {
    std::ofstream out(summary_md, std::ios::app);
    if (!out) {
      std::cerr << "dphist_lint: cannot write " << summary_md << "\n";
      return 2;
    }
    out << dphist::lint::FormatMarkdownTable(report);
  }

  return report.findings.empty() ? 0 : 1;
}
